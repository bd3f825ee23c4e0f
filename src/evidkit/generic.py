"""Black-box models: a user-supplied log-likelihood plus a regularizer.

A model is two scalar functions over a box-bounded parameter space.  The
regularizer plays the role of an unnormalized negative log prior; the
normalizer over the box is computed by composite trapezoid quadrature in
log space, so everything downstream can use a proper prior density.

The MAP search is a safeguarded Newton iteration on finite-difference
derivatives; an indefinite Hessian is shifted until it factors, so one step
rule serves every curvature.  Gradients are never requested from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import AccuracyFailure, ConvergenceFailure, NumericFailure
from .glm import LOG_2PI, GaussianLinearSpec, ObservationSet, _cholesky_solve, _posterior

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
MULTISTART_STARTS = 8
# A Newton decrement this many ulps of the objective is below its rounding.
STALL_ULPS = 16.0
SHIFT_FLOOR = 1e-3

# Half-width of the evidence integration box, in posterior sd about the MAP.
BOX_SDS = 8.0
# No err_estimate is below this many roundings of the value it bounds.
ROUNDING_ULPS = 64.0
BOUNDARY_MASS_RATIO = 1e-12
MAX_BOX_DOUBLINGS = 6
# Probe resolution for the widening decision only; undersampling the peak
# just makes the boundary-mass check more conservative.
PROBE_POINTS_PER_DIM = 17
MAX_GRID_NODES = 20_000_000
# The one table of default evidence grids, keyed by the dimensions grid quadrature
# supports: the half grid has a node every 0.8 posterior sd.
DEFAULT_GRID = {1: 41, 2: 41, 3: 41}
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
        Finite box along unbounded coordinates: its centre starts the MAP
        searches, and :func:`normalize_prior` integrates over it, widened
        (doubling, at most 6 times) until the integrand at the boundary is
        below 1e-12 of its peak.
    vectorized : bool
        When True the two callables accept an ``(m, dim)`` array and return
        an ``(m,)`` array, which is dramatically faster on dense grids.  A
        row's value must not depend on the other rows in the batch.  The
        batch is in no promised memory order: grid nodes come column-major.

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
    when supplied analytically.  ``box`` records where the normalizer holds:
    every evidence integral and draw stays inside it, cut to the support.
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

@lru_cache(maxsize=None)
def _stencil_table(d):
    """``(offsets, i, j)``: the read-only ``±1`` offsets of the d-dimensional stencil.

    The Hessian's points come in the order centre, up, down, and then the
    four corners of each pair ``(i, j)``; its up and down rows are the
    gradient's.  Scaling an offset by the steps multiplies by ``±1`` or 0,
    which is exact, so every point keeps the bits of adding its step alone.
    """
    eye = np.eye(d)
    i, j = np.triu_indices(d, k=1)
    corners = [si * eye[i] + sj * eye[j]
               for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    table = (np.concatenate([np.zeros((1, d)), eye, -eye] + corners), i, j)
    for array in table:
        array.setflags(write=False)
    return table


def _stencil_derivatives(f_batch, theta, grad_step=None, hess_step=None, bounds=None):
    """Central-difference gradient and Hessian from one batch of evaluations.

    The points and formulas are those of :func:`finite_difference_gradient` (step
    ``grad_step``) and :func:`finite_difference_hessian` (step ``hess_step``); a step of None
    leaves that derivative out and returns None in its place.  A stack ``theta`` of shape
    (m, d) evaluates every row's stencil in the one batch and returns (m, d) gradients and
    (m, d, d) Hessians.  Every stencil is centred at its ``theta``: given the support's
    ``bounds``, a coordinate nearer a finite bound than its step steps half that gap, so no
    point leaves the support, and one on a bound steps 0 and gets NaN derivatives.
    """
    theta = np.asarray(theta, dtype=float)
    rows = np.atleast_2d(theta)
    m, d = rows.shape
    offsets, i, j = _stencil_table(d)
    gap = np.inf if bounds is None else np.minimum(rows - bounds[:, 0], bounds[:, 1] - rows)
    scaled = []
    if grad_step is not None:
        hg = grad_step * (1.0 + np.abs(rows))
        hg = np.where(gap < hg, gap / 2.0, hg)
        scaled.append(offsets[1:2 * d + 1] * hg[:, None, :])
    if hess_step is not None:
        h = hess_step * (1.0 + np.abs(rows))
        h = np.where(gap < h, gap / 2.0, h)
        scaled.append(offsets * h[:, None, :])
    points = rows[:, None, :] + np.concatenate(scaled, axis=1)
    values = f_batch(points.reshape(-1, d)).reshape(m, -1)

    grad = hess = None
    with np.errstate(divide="ignore", invalid="ignore"):  # a step of 0 gives NaN, silently
        if grad_step is not None:
            grad = (values[:, :d] - values[:, d:2 * d]) / (2.0 * hg)
        if hess_step is not None:
            f0, f_up, f_dn, f_pp, f_pm, f_mp, f_mm = np.split(
                values[:, -len(offsets):], np.cumsum([1, d, d] + [i.size] * 3), axis=1)
            hess = np.zeros((m, d, d))
            hess[:, range(d), range(d)] = (f_up - 2.0 * f0 + f_dn) / h ** 2
            hess[:, i, j] = hess[:, j, i] = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h[:, i] * h[:, j])
    if theta.ndim < 2:  # one point: its results unstacked
        grad = None if grad is None else grad[0]
        hess = None if hess is None else hess[0]
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

def _strictly_interior(theta, bounds):
    pad = 1e-12 * (1.0 + np.abs(theta))
    lo_ok = np.isinf(bounds[:, 0]) | (theta > bounds[:, 0] + pad)
    hi_ok = np.isinf(bounds[:, 1]) | (theta < bounds[:, 1] - pad)
    return bool(np.all(lo_ok & hi_ok))


def _ascent_step(grad, hess):
    """Newton step for ``-hess + tau I``; None from a non-finite input or step.

    ``tau`` is 0 when ``-hess`` has a positive diagonal, else ``SHIFT_FLOOR`` above
    its most negative entry, and doubles until the Cholesky factor exists
    (Nocedal and Wright, *Numerical Optimization*, 2006, Algorithm 3.3).
    """
    # potrf factors [[inf]] and the solve gives a zero step, which would pass as stationary.
    if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(grad))):
        return None
    top = float(np.diag(hess).max())
    tau = 0.0 if top < 0 else SHIFT_FLOOR + top
    while np.isfinite(tau):
        try:
            step = _cholesky_solve(tau * np.eye(grad.size) - hess, grad, "Hessian")[1]
            return step if np.all(np.isfinite(step)) else None
        except NumericFailure:
            tau = max(2.0 * tau, SHIFT_FLOOR)
    return None


class _Mode(NamedTuple):
    """Where a MAP search ended: its ``theta`` and objective ``value``, with the confirming
    stencil ``hess`` if it converged, else ``hess`` None and the ``failure`` that stopped it."""

    theta: np.ndarray
    value: float
    hess: np.ndarray | None
    failure: str | None = None


def map_optimize(model: GenericModelSpec, start, *, max_iter=MAX_ITER) -> np.ndarray:
    """Local maximizer of ``log_lik(theta) - regularizer(theta)``.

    Newton with backtracking on finite-difference derivatives.  ``-H`` is shifted by ``tau I``
    until it factors (:func:`_ascent_step`), so one step rule serves every finite Hessian; a
    concave one keeps ``tau = 0``.  A non-finite Hessian or gradient gives no step.  Every
    stencil is centred at ``theta``, its step shrunk to half the gap near a finite bound, and
    a line-search trial past a finite bound stops halfway to it, so no iterate lands on one.

    Each iteration evaluates the gradient and Hessian stencils as one batch.
    Convergence requires an interior point whose Hessian is negative
    semidefinite within ``CURVATURE_TOL`` and which is stationary: its
    central-difference gradient has sup-norm below ``GRAD_TOL``, or its
    Newton decrement ``grad @ step`` is at most ``16 eps max(1, |value|)``.
    The second test stops the search once the gain a Newton step predicts
    is below the rounding of the objective, where the line search could
    only accept steps of a few ulps.  A stationary interior point that
    fails the curvature test steps along the top eigenvector of ``H``, by
    ``1 + max|theta|``: there the Newton step is 0.

    Raises
    ------
    ConvergenceFailure
        At the first iteration whose line search finds no ascent step
        (every later one would repeat it), or after ``max_iter`` iterations;
        the error carries the last iterate, the best since every step ascends.
        A start on a finite bound leaves no room for a stencil and fails at iteration 1.
    """
    return _search(model, start, max_iter).theta


def _search(model: GenericModelSpec, start, max_iter=MAX_ITER) -> _Mode:
    """The search :func:`map_optimize` states, returning its converged :class:`_Mode`."""
    mode = _search_all(model, np.asarray(start, dtype=float)[None], max_iter)[0]
    if mode.failure is not None:
        raise ConvergenceFailure(f"no interior stationary point found: {mode.failure} "
                                 f"(best objective {mode.value:.6g})",
                                 best_theta=mode.theta, best_value=mode.value)
    return mode


def _search_all(model: GenericModelSpec, starts, max_iter=MAX_ITER) -> list[_Mode]:
    """The search :func:`map_optimize` states, from every row of ``starts`` in lockstep.

    Each start keeps its own path, so it ends as it would alone, in one :class:`_Mode` of the
    returned list; a failed start's is its last iterate, its best since an accepted step gains
    ``1e-4 t`` times a decrement that is never negative.  Only the model evaluations are
    shared: one batch for the start values, one per iteration for every searching start's
    stencil, and one per backtracking round for every start still line-searching.
    """
    bounds = model.bounds()
    thetas = np.array(starts, dtype=float)
    if thetas.shape[1:] != (model.dim,):
        raise ValueError(f"start has shape {thetas.shape[1:]}, expected ({model.dim},)")
    if np.any(thetas < bounds[:, 0]) or np.any(thetas > bounds[:, 1]):
        raise ValueError("start lies outside the support box")

    psi = _objective(model)
    values = [float(value) for value in psi(thetas)]
    if not np.all(np.isfinite(values)):
        raise ValueError("objective is not finite at the start point")
    stall = STALL_ULPS * np.finfo(float).eps
    # Each start's end: a _Mode, or why its search stopped.
    ends = [f"the {max_iter}-iteration limit was reached"] * len(thetas)

    searching = list(range(len(thetas)))
    for iteration in range(1, max_iter + 1):
        grads, hesses = _stencil_derivatives(psi, thetas[searching], GRAD_STEP, HESS_STEP, bounds)
        steps = {}
        for k, grad, hess in zip(searching, grads, hesses):
            theta, value = thetas[k], values[k]
            step = _ascent_step(grad, hess)
            decrement = np.inf if step is None else float(grad @ step)
            stationary = (np.max(np.abs(grad)) < GRAD_TOL
                          or decrement <= stall * max(1.0, abs(value)))
            if stationary and _strictly_interior(theta, bounds):
                if float(np.linalg.eigvalsh(hess).max()) <= CURVATURE_TOL:
                    ends[k] = _Mode(theta.copy(), value, hess)
                    continue
                if step is not None:  # a saddle or minimum: its gain is second order
                    curvature, axes = np.linalg.eigh(hess)
                    step = axes[:, -1] * np.copysign(1.0 + np.max(np.abs(theta)),
                                                     grad @ axes[:, -1])
                    decrement = 0.5 * curvature[-1] * float(step @ step)
            steps[k] = step, decrement

        t = 1.0
        backtracking = [k for k, (step, _) in steps.items() if step is not None]
        searching = []  # the starts whose line search accepts a step
        while backtracking and t > 1e-12:
            current = thetas[backtracking]
            trials = current + t * np.array([steps[k][0] for k in backtracking])
            # A trial past a finite bound stops halfway there, so no iterate lands on a bound.
            trials = np.where(trials < bounds[:, 0], (current + bounds[:, 0]) / 2.0, trials)
            trials = np.where(trials > bounds[:, 1], (current + bounds[:, 1]) / 2.0, trials)
            for k, trial, trial_value in zip(backtracking, trials, psi(trials)):
                if np.isfinite(trial_value) and trial_value >= values[k] + 1e-4 * t * steps[k][1]:
                    thetas[k], values[k] = trial, float(trial_value)
                    searching.append(k)
            backtracking = [k for k in backtracking if k not in searching]
            t /= 2.0
        for k in steps:
            if k not in searching:
                # No step ascends: every later iteration would start here and fail alike.
                ends[k] = f"no ascent step was left at iteration {iteration}"
        if not searching:
            break
    return [end if isinstance(end, _Mode) else _Mode(theta.copy(), value, None, end)
            for end, theta, value in zip(ends, thetas, values)]


@dataclass(frozen=True, eq=False)
class MultistartResult:
    """Best local maximizer over several starts, with every basin recorded.

    ``basins`` holds one ``(start, theta, value)`` triple per start;
    failed starts keep their best iterate with the value reached.
    """

    theta: np.ndarray
    value: float
    basins: tuple[tuple[np.ndarray, np.ndarray, float], ...]


def map_optimize_multistart(model: GenericModelSpec, seed: int, *, box=None) -> MultistartResult:
    """MAP search restarted from seeded Latin-hypercube points.

    :func:`map_optimize` is a local method; multimodal objectives need several
    starts.  The ``MULTISTART_STARTS`` (8) starts are a Latin-hypercube sample
    over ``box`` (the support box by default, which must then be finite; a given
    one must lie inside the support), one stratum per start in every coordinate.
    The best local maximum wins; all basins are returned for inspection.

    The starts advance in lockstep: each iteration evaluates every searching
    start's stencil as one batch, and each backtracking round the trial
    points of every start still line-searching.  Each start keeps the path
    and the result it would have alone.
    """
    bounds = model.bounds()
    if box is None:
        box = bounds
        if not np.all(np.isfinite(box)):
            raise ValueError("multistart needs a finite box; pass one for unbounded support")
    else:
        box = _as_box(box, model.dim, "box", require_finite=True)
        if np.any(box[:, 0] < bounds[:, 0]) or np.any(box[:, 1] > bounds[:, 1]):
            raise ValueError("box must lie inside the support")

    rng = np.random.default_rng(seed)
    strata = (rng.permuted(np.tile(np.arange(MULTISTART_STARTS), (model.dim, 1)), axis=1).T
              + rng.uniform(size=(MULTISTART_STARTS, model.dim))) / MULTISTART_STARTS
    starts = box[:, 0] + strata * (box[:, 1] - box[:, 0])

    basins = [(start, mode.theta, mode.value)
              for start, mode in zip(starts, _search_all(model, starts))]
    _, theta, value = max(basins, key=lambda basin: basin[2])  # the first of equal values
    return MultistartResult(theta=theta, value=value, basins=tuple(basins))


# ---------------------------------------------------------------------------
# Integration boxes and trapezoid quadrature in log space
# ---------------------------------------------------------------------------

def _declared_box(model: GenericModelSpec, limits=None) -> np.ndarray:
    """Initial finite box: ``limits`` (default: the support), the effective box where infinite."""
    box = (model.bounds() if limits is None else limits).copy()
    for k, side in zip(*np.nonzero(~np.isfinite(box))):
        if model.effective_box is None:
            raise ValueError(f"coordinate {k} has unbounded support; declare effective_box")
        box[k, side] = model.effective_box[k, side]
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("integration box has lower >= upper")
    return box


def _region(model: GenericModelSpec, prior: NormalizedPrior) -> np.ndarray:
    """Where every evidence integral and importance draw stays: the support cut to ``prior.box``."""
    bounds = model.bounds()
    box = bounds if prior.box is None else _as_box(
        prior.box, model.dim, "prior box", require_finite=True)
    region = np.clip(box, bounds[:, :1], bounds[:, 1:])  # the normalizer holds inside its box only
    if np.any(region[:, 0] >= region[:, 1]):
        raise ValueError(f"prior box {box.tolist()} does not overlap the support {bounds.tolist()}")
    return region


def _log_trapezoid_sum(axes, values) -> float:
    """Log trapezoid sum over the grid ``axes`` of ``exp(values)``, values in grid order."""
    total = np.zeros(1)  # tensor product of the per-axis log weights, in grid order
    for nodes in axes:
        w = np.full(nodes.size, np.log((nodes[-1] - nodes[0]) / (nodes.size - 1)))
        w[0] += np.log(0.5)
        w[-1] += np.log(0.5)
        total = (total[:, None] + w[None, :]).reshape(-1)
    values = values + total  # a buffer of its own, shifted and exponentiated in place
    # Shifted by the peak, no exp is subnormal: subnormals are slow as well as imprecise.
    top = float(np.max(values))
    if not np.isfinite(top):  # every node -inf, or one +inf or NaN
        return top
    values -= top
    return top + float(np.log(np.sum(np.exp(values, out=values))))


def _check_node_limit(points_per_dim, dim):
    """Refuse a grid of more than ``MAX_GRID_NODES`` nodes."""
    if points_per_dim ** dim > MAX_GRID_NODES:
        raise ValueError(
            f"grid of {points_per_dim}^{dim} nodes exceeds the {MAX_GRID_NODES} node limit")


def _check_grid(grid_points_per_dim, dim: int) -> int:
    """Points per axis of a Richardson-checked grid, checked before any model evaluation.

    The keys of ``DEFAULT_GRID`` are the supported dimensions; None takes their default.
    """
    if dim not in DEFAULT_GRID:
        raise ValueError(f"grid quadrature supports dim <= 3, got dim={dim}")
    g = DEFAULT_GRID[dim] if grid_points_per_dim is None else int(grid_points_per_dim)
    if g < 5:
        raise ValueError("grid_points_per_dim must be >= 5")
    if g % 2 == 0:  # the half grid is the even-indexed nodes of an odd one
        raise ValueError(f"grid_points_per_dim must be odd, got {g}")
    _check_node_limit(g, dim)
    return g


def _evaluate_grid(model: GenericModelSpec, log_integrand, box, points_per_dim):
    """Grid axes over ``box`` and the integrand's values at every node, in grid order."""
    if points_per_dim < 3:
        raise ValueError("points_per_dim must be >= 3")
    _check_node_limit(points_per_dim, model.dim)
    box = np.asarray(box, dtype=float)
    axes = [np.linspace(box[k, 0], box[k, 1], points_per_dim) for k in range(box.shape[0])]
    # One stacked buffer, transposed: (N, dim) nodes in grid order with contiguous columns.
    mesh = np.stack(np.meshgrid(*axes, indexing="ij", copy=False))
    return axes, log_integrand(mesh.reshape(len(axes), -1).T)


def log_trapezoid_integral(model: GenericModelSpec, log_integrand, box, points_per_dim) -> float:
    """``log integral exp(log_integrand)`` by composite trapezoid in log space.

    ``log_integrand`` maps an ``(m, dim)`` batch of points to ``m`` values.  The
    batch is in no promised memory order; the grid's nodes come column-major.
    """
    return _log_trapezoid_sum(*_evaluate_grid(model, log_integrand, box, points_per_dim))


def resolve_integration_box(model: GenericModelSpec, log_integrand, box=None,
                            limits=None) -> np.ndarray:
    """Finite box covering the integrand mass.

    Starts from ``box`` (default: the declared box within ``limits``) within
    ``limits`` (default: the support) and doubles the width of every face short
    of its limit, clipped to it, until the integrand at every such face of a
    17-point probe grid (held to ``MAX_GRID_NODES``) is below 1e-12 of its peak,
    at most 6 doublings.  Truncation that cannot be cured this way (an
    integrand that does not decay) raises instead of returning a too-small box.
    """
    limits = model.bounds() if limits is None else np.asarray(limits, dtype=float)
    box = _declared_box(model, limits) if box is None else np.asarray(box, dtype=float)
    widenable = box != limits
    if not np.any(widenable):
        return box
    for _ in range(MAX_BOX_DOUBLINGS + 1):  # the last widening is never probed
        _, values = _evaluate_grid(model, log_integrand, box, PROBE_POINTS_PER_DIM)
        if not np.all(values < np.inf):  # a NaN or +inf node is no mass at a face
            raise NumericFailure(f"integrand is NaN or +inf on the probe grid over {box.tolist()}")
        values = values.reshape([PROBE_POINTS_PER_DIM] * model.dim)
        peak = float(values.max())
        boundary_max = -np.inf
        for k, side in zip(*np.nonzero(widenable)):
            face = np.take(values, -side, axis=k)
            boundary_max = max(boundary_max, float(face.max()))
        if boundary_max - peak < np.log(BOUNDARY_MASS_RATIO):
            return box
        half_width = (box[:, 1] - box[:, 0]) / 2.0
        box = np.where(widenable, box + np.outer(half_width, [-1.0, 1.0]), box)
        box = np.clip(box, limits[:, :1], limits[:, 1:])
        widenable = box != limits
    raise AccuracyFailure(
        f"integrand mass remains at the integration boundary after "
        f"{MAX_BOX_DOUBLINGS} box doublings; exp(-R) may not be integrable",
        err_estimate=float(np.exp(boundary_max - peak)))


def _richardson_log_integral(model: GenericModelSpec, log_integrand, limits, g, max_err, what,
                             theta_hat=None, chol_lower=None, base_err=0.0):
    """``(value, err, info)``: a black-box log-integral, its error bar, and its grid and box.

    The box is ``theta_hat`` +- ``BOX_SDS`` sd read from the curvature's lower factor
    ``chol_lower``, else the declared box, inside ``limits`` and widened by
    :func:`resolve_integration_box`.  The odd ``g`` of :func:`_check_grid` holds the half
    rule on its even-indexed nodes, so the integrand is evaluated once.  The bar, which
    ``max_err`` checks, is a third of the two sums' change (trapezoid error scales as the
    squared step), floored at ``ROUNDING_ULPS`` roundings of the value, plus ``base_err``.
    """
    box = None  # resolves to the declared box within the limits, built only then
    if chol_lower is not None:
        # The posterior covariance is L^-T L^-1, so each sd is a column norm of L^-1.
        sd = np.linalg.norm(np.linalg.inv(chol_lower), axis=0)
        centre = np.clip(theta_hat, limits[:, 0], limits[:, 1])
        box = np.clip(centre[:, None] + BOX_SDS * np.outer(sd, [-1.0, 1.0]),
                      limits[:, :1], limits[:, 1:])
    box = resolve_integration_box(model, log_integrand, box, limits)
    axes, values = _evaluate_grid(model, log_integrand, box, g)
    fine = _log_trapezoid_sum(axes, values)
    even_nodes = values.reshape([g] * model.dim)[(slice(None, None, 2),) * model.dim]
    coarse = _log_trapezoid_sum([nodes[::2] for nodes in axes], even_nodes.reshape(-1))
    if not (np.isfinite(fine) and np.isfinite(coarse)):
        # A NaN or +inf node, or -inf at every node: no bar would be true.
        raise NumericFailure(f"{what} is not finite: fine {fine}, half-resolution {coarse}")
    floor = ROUNDING_ULPS * np.finfo(float).eps * max(1.0, abs(fine))
    err = max(abs(fine - coarse) / 3.0, floor) + base_err
    if max_err is not None and err > max_err:
        raise AccuracyFailure(
            f"{what} error estimate {err:.3e} exceeds tolerance {max_err:.3e} "
            f"(fine {fine:.12g}, half-resolution {coarse:.12g})",
            value=fine, coarse_value=coarse, err_estimate=err)
    return fine, err, {"grid_points_per_dim": g, "box": box.tolist()}


def normalize_prior(model: GenericModelSpec, grid_points_per_dim: int,
                    max_err: float | None = None) -> NormalizedPrior:
    """Log normalizer of ``exp(-R)`` by trapezoid quadrature in log space, dim <= 3.

    ``grid_points_per_dim`` is odd, and the error estimate is a Richardson
    comparison against the same rule on its even-indexed nodes (trapezoid error
    scales as the squared step, so a third of the change bounds the fine error),
    floored at 64 roundings of log Z.  A NaN or +inf ``-R`` raises NumericFailure.

    Raises
    ------
    AccuracyFailure
        When ``max_err`` is given and the estimate exceeds it; the error
        carries both resolutions' values.
    """
    def neg_reg(points):
        return -model._regularizer_batch(points)

    g = _check_grid(grid_points_per_dim, model.dim)  # before the probe
    log_z, err, info = _richardson_log_integral(model, neg_reg, model.bounds(), g, max_err,
                                                "prior normalizer")
    return NormalizedPrior(
        log_norm_const=log_z, method="grid-quadrature", err_estimate=err,
        box=info["box"], grid_points_per_dim=g)


# ---------------------------------------------------------------------------
# Bridging from the closed-form Gaussian linear model
# ---------------------------------------------------------------------------

def wrap_glm(spec: GaussianLinearSpec, obs: ObservationSet) -> GenericModelSpec:
    """Expose a Gaussian linear model through the black-box interface.

    The returned spec is vectorized, so the generic estimators can be
    validated against the closed forms.  Its effective box, which only
    seeds MAP searches, is ten prior sd (``10 / lam``) about zero.

    The log-likelihood reads sufficient statistics only, at O(d^2) per
    point: with ``delta = theta - theta_hat`` and ``r = y - G theta_hat``,
    ``||y - G theta||^2 = ||r||^2 - 2 delta'G'r + delta'G'G delta``.
    Expanding about the posterior mean rather than 0 keeps every term small
    near the mode, so no ``y'y``-sized terms cancel.
    """
    # Before log(sigma2): a sigma**2 that underflows to 0 raises NumericFailure here.
    # G comes in C order: G'r on a column view would round differently from the closed form.
    G, gram, _, _, theta_hat = _posterior(spec, obs.y)
    sigma2 = spec.sigma**2
    lam2 = spec.lam**2
    const = -0.5 * spec.n * (LOG_2PI + np.log(sigma2))
    resid = obs.y - G @ theta_hat
    rss, g_resid = float(resid @ resid), G.T @ resid

    def log_lik(points):
        delta = points - theta_hat
        sq = rss - 2.0 * (delta @ g_resid) + np.einsum("ij,ij->i", delta @ gram, delta)
        return const - sq / (2.0 * sigma2)

    def regularizer(points):
        return 0.5 * lam2 * np.einsum("ij,ij->i", points, points)

    prior_box = np.tile([-10.0 / spec.lam, 10.0 / spec.lam], (spec.d, 1))
    return GenericModelSpec(
        dim=spec.d, log_lik=log_lik, regularizer=regularizer,
        support=None, effective_box=prior_box, vectorized=True)


def glm_normalized_prior(spec: GaussianLinearSpec) -> NormalizedPrior:
    """Closed-form normalizer of the quadratic regularizer's Gaussian prior."""
    log_z = 0.5 * spec.d * (LOG_2PI - 2.0 * np.log(spec.lam))
    return NormalizedPrior(log_norm_const=log_z, method="closed-form", err_estimate=0.0)
