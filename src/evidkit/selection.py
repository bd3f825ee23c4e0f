"""Model-set selection rules and seeded Monte Carlo experiments.

A model set is an ordered list of Gaussian linear or black-box members with
prior weights.  Selection maximizes log-evidence (or log-weight plus
log-evidence); ties within 1e-12 go to the lowest index and are recorded.
The experiment harness estimates zero-one risk under repeated sampling,
runs the polynomial degree sweet-spot experiment, and exhibits the
evidence crossover between a stiff and a flexible scalar model.

All replicate randomness derives from spawned child seeds, so reports are
reproducible bit for bit and replicates could run in any order.
"""

from __future__ import annotations

import warnings as _warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .evidence import evidence_laplace, evidence_quadrature
from .exceptions import EvidkitError, SelectionFailure
from .generic import GenericModelSpec, _check_grid, normalize_prior
from .glm import (EvidenceDecomposition, GaussianLinearSpec, ObservationSet, _check_count,
                  _check_dims, _check_scale, _evidence_terms, _log_evidences, _matvec,
                  glm_log_evidence)

__all__ = [
    "ModelSet",
    "SelectionOutcome",
    "RiskReport",
    "SweetSpotReport",
    "CrossoverReport",
    "select",
    "prior_predictive_generator",
    "risk_mc",
    "polynomial_family",
    "scaled_polynomial_design",
    "sweet_spot_experiment",
    "mackay_crossover",
]

TIE_TOL = 1e-12
RULES = ("max-evidence", "max-posterior")
# Most response floats per ``risk_mc`` batch, and test-design floats per sweet-spot chunk.
_CHUNK_FLOATS = 1 << 18


def _check_weights(weights, k: int) -> np.ndarray:
    """Prior model weights as an array: k positive values summing to 1 within 1e-12."""
    weights = np.array(weights, dtype=float)
    if weights.shape != (k,):
        raise ValueError(f"{weights.size} weights for {k} members")
    if not np.all(weights > 0):
        raise ValueError("weights must all be positive")
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError(f"weights sum to {float(weights.sum())!r}, expected 1 within 1e-12")
    return weights


def _check_degrees(degrees) -> list[int]:
    """Polynomial degrees as ints: nonempty, each a whole number >= 0, and distinct."""
    degrees = [_check_count(p, "degrees", 0) for p in degrees]
    if len(degrees) == 0:
        raise ValueError("degrees must be nonempty")
    if len(set(degrees)) != len(degrees):
        raise ValueError("degrees must be distinct")
    return degrees


def _check_true_degree(true_degree, degrees) -> int:
    """The true degree as an int, which must be one of ``degrees``."""
    true_degree = _check_count(true_degree, "true_degree", 0)
    if true_degree not in degrees:
        raise ValueError(f"true_degree {true_degree} is not among degrees {list(degrees)}")
    return true_degree


def _check_rules(rules) -> tuple[str, ...]:
    """Selection rule names as a tuple, each one of ``RULES``."""
    rules = tuple(rules)
    for rule in rules:
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    return rules


def _check_y_grid(y_grid) -> np.ndarray:
    """A response grid as a float vector: at least 2 points, all finite, strictly increasing."""
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size < 2:
        raise ValueError("y_grid must be a vector with at least 2 points")
    if not np.all(np.isfinite(y_grid)):
        raise ValueError("y_grid contains non-finite entries")
    if np.any(np.diff(y_grid) <= 0):
        raise ValueError("y_grid must be strictly increasing")
    return y_grid


@dataclass(frozen=True, eq=False)
class ModelSet:
    """Ordered candidate models with prior weights.

    Parameters
    ----------
    members : sequence
        ``GaussianLinearSpec`` or ``GenericModelSpec`` instances.
    weights : sequence of float, optional
        Positive prior model probabilities summing to 1 within 1e-12.
        Defaults to uniform.
    labels : sequence of str, optional
        Human-readable member names for reports.
    info : mapping, optional
        Construction metadata, e.g. the column scaling of a polynomial
        family.
    """

    members: tuple
    weights: np.ndarray = None
    labels: tuple[str, ...] | None = None
    info: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 1:
            raise ValueError("model set must have at least one member")
        for i, member in enumerate(members):
            if not isinstance(member, (GaussianLinearSpec, GenericModelSpec)):
                raise TypeError(f"member {i} has unsupported type {type(member).__name__}")
        object.__setattr__(self, "members", members)
        if self.weights is None:
            weights = np.full(len(members), 1.0 / len(members))
        else:
            weights = _check_weights(self.weights, len(members))
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != len(members):
                raise ValueError("labels length does not match members")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class SelectionOutcome:
    """Chosen index with the per-model log-scores that produced it."""

    chosen: int
    log_scores: np.ndarray
    rule: str
    tie_broken: bool
    decompositions: tuple[EvidenceDecomposition, ...] = ()


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Monte Carlo zero-one risk of selection rules.

    ``risks[r]`` is the fraction of replicates where rule ``r`` chose an
    index other than the true one.  ``per_true_model[j, r]`` conditions on
    the true member ``j`` (NaN when j was never drawn).
    """

    rule_names: tuple[str, ...]
    risks: np.ndarray
    reps: int
    seed: int
    per_true_model: np.ndarray
    true_counts: np.ndarray


def _member_evidence(member, obs: ObservationSet, generic_estimator: str,
                     grid_points_per_dim: int | None) -> EvidenceDecomposition:
    if isinstance(member, GaussianLinearSpec):
        return glm_log_evidence(member, obs)
    grid = _check_grid(grid_points_per_dim, member.dim)  # before the prior's grid
    prior = normalize_prior(member)
    if generic_estimator == "quadrature":
        return evidence_quadrature(member, prior, grid)
    return evidence_laplace(member, prior, err_check_grid=grid)


@contextmanager
def _failure(index: int | None = None, replicate: int | None = None, alone=None):
    """Re-raise an evidence failure, or a replicate's own ``ValueError``, naming where it arose."""
    try:
        yield
    except EvidkitError as exc:
        # A failed stack reruns its replicates alone, in (replicate, member) order, as a loop would.
        evaluate, rows, members = alone or (None, 0, ())
        for row in range(rows):
            for i in members:
                with _failure(i, replicate=replicate + row):
                    evaluate(row, i)
        prefix = "" if replicate is None else f"replicate {replicate} failed: "
        member = "" if index is None else f"evidence evaluation failed for member {index}: "
        index = getattr(exc, "index", None) if index is None else index
        raise SelectionFailure(f"{prefix}{member}{exc}", index=index, replicate=replicate) from exc
    except ValueError as exc:  # such as a generator breaking its contract
        if replicate is None or index is not None:
            raise
        raise ValueError(f"replicate {replicate} failed: {exc}") from None


def _tied(model_set: ModelSet, log_evidences: np.ndarray, rule: str) -> tuple:
    """Log-scores under ``rule`` and the mask of those within ``TIE_TOL`` of the best.

    Members lie along the last axis; the rule chooses the first tied one.
    """
    log_scores = (np.log(model_set.weights) + log_evidences if rule == "max-posterior"
                  else log_evidences)
    return log_scores, log_scores >= log_scores.max(axis=-1, keepdims=True) - TIE_TOL


def select(model_set: ModelSet, obs: ObservationSet, rule: str = "max-evidence", *,
           generic_estimator: str = "laplace",
           grid_points_per_dim: int | None = None) -> SelectionOutcome:
    """Select one member by maximum evidence or maximum posterior probability.

    ``max-evidence`` scores each member by its log-evidence;
    ``max-posterior`` adds the log prior weight, which is the Bayes rule for
    zero-one loss.  With uniform weights the two rules agree, since the
    scores differ by a constant.  Gaussian linear members use the exact
    closed form; black-box members use the configured generic estimator,
    with the prior normalized on the prior size of the member's ``DEFAULT_GRID``
    row (2001, 201^2 or 41^3 nodes).  ``grid_points_per_dim`` (default: the
    row's evidence size, 41) sizes the quadrature; under either estimator it is
    checked before any evaluation.

    Ties within 1e-12 of the maximum go to the lowest index and set
    ``tie_broken``.  A failure raises ``SelectionFailure`` naming the member.
    """
    _check_rules([rule])
    if generic_estimator not in ("quadrature", "laplace"):
        raise ValueError(f"unknown generic estimator {generic_estimator!r}")
    decomps = []
    for i, member in enumerate(model_set.members):
        with _failure(i):
            decomps.append(_member_evidence(member, obs, generic_estimator, grid_points_per_dim))
    log_scores, tied = _tied(model_set, np.array([dec.log_evidence for dec in decomps]), rule)
    return SelectionOutcome(
        chosen=int(np.argmax(tied)), log_scores=log_scores, rule=rule,
        tie_broken=bool(tied.sum() > 1), decompositions=tuple(decomps))


def prior_predictive_generator(model_set: ModelSet) -> Callable:
    """Sampler drawing (true index, dataset) from the set's own priors.

    The true index follows the set weights; the member's coefficients are
    drawn from its Gaussian prior and responses are simulated as
    ``G theta + sigma * noise``.  This makes maximum posterior probability
    the exact Bayes rule for the resulting selection problem.
    """
    for i, member in enumerate(model_set.members):
        if not isinstance(member, GaussianLinearSpec):
            raise ValueError(f"member {i} cannot simulate datasets (not a Gaussian linear model)")

    def generate(rng: np.random.Generator):
        j = int(rng.choice(len(model_set), p=model_set.weights))
        member = model_set.members[j]
        theta = rng.standard_normal(member.d) / member.lam
        y = member.G @ theta + member.sigma * rng.standard_normal(member.n)
        return j, ObservationSet(y=y)

    return generate


def risk_mc(model_set: ModelSet, generator: Callable | None, reps: int,
            rules: Sequence[str], seed: int) -> RiskReport:
    """Zero-one risk of selection rules, estimated by seeded replication.

    Parameters
    ----------
    generator : callable or None
        ``rng -> (true_index, ObservationSet)``.  ``None`` uses
        :func:`prior_predictive_generator`.
    reps : int
        Number of replicates; each gets its own spawned child stream, so
        the report is identical regardless of evaluation order.
    rules : sequence of str
        Selection rules to score on the same simulated datasets.

    Black-box members are evaluated once per run, before any draw, because
    a ``GenericModelSpec`` holds its data and its callables are pure by
    contract.  Each Gaussian linear member is evaluated once per batch of up
    to ``_CHUNK_FLOATS // n`` stacked responses, from one factorization and
    bit for bit as :func:`glm_log_evidence` on each replicate, so the report
    and the first failure are those of :func:`select` on every replicate.
    """
    reps = _check_count(reps, "reps")
    seed = _check_count(seed, "seed", 0)
    rules = _check_rules(rules)
    if generator is None:
        generator = prior_predictive_generator(model_set)

    k, members = len(model_set), model_set.members
    gaussian = [i for i, member in enumerate(members) if isinstance(member, GaussianLinearSpec)]
    truth, log_e = np.empty(reps, dtype=int), np.empty((reps, k))
    for i, member in enumerate(members):
        if i not in gaussian:
            with _failure(i, replicate=0):
                log_e[:, i] = _member_evidence(member, None, "laplace", None).log_evidence
    width = max(1, _CHUNK_FLOATS // members[gaussian[0]].n) if gaussian else reps
    children = np.random.SeedSequence(seed).spawn(reps)
    for start in range(0, reps, width):
        ys = []
        for rep in range(start, min(start + width, reps)):
            with _failure(replicate=rep):
                true_index, obs = generator(np.random.default_rng(children[rep]))
                if not 0 <= true_index < k:
                    raise ValueError(f"generator returned out-of-range true index {true_index}")
                true_index = _check_count(true_index, "true index", 0)
                for i in gaussian:
                    _check_dims(members[i], obs.y)
            truth[rep] = true_index
            ys.append(obs.y)
        Y = np.array(ys) if gaussian else None
        alone = (lambda row, i: _log_evidences(members[i], Y[row]), len(ys), gaussian)
        for i in gaussian:
            with _failure(i, replicate=start, alone=alone):
                log_e[start:start + len(ys), i] = _log_evidences(members[i], Y)

    true_counts = np.bincount(truth, minlength=k).astype(float)
    wrong = [np.argmax(_tied(model_set, log_e, rule)[1], axis=1) != truth for rule in rules]
    errors = np.array([np.bincount(truth, w, minlength=k) for w in wrong]).T
    with np.errstate(invalid="ignore", divide="ignore"):
        per_true = errors / true_counts[:, None]
    return RiskReport(rule_names=rules, risks=errors.sum(axis=0) / reps, reps=reps,
                      seed=seed, per_true_model=per_true, true_counts=true_counts)


# ---------------------------------------------------------------------------
# Polynomial regression family
# ---------------------------------------------------------------------------

def _column_scales(degree: int, scale_base: float) -> tuple[float, ...]:
    """Divisor of each design column: ``scale_base**k``, or 1 for a constant covariate."""
    return tuple((scale_base**k if scale_base > 0 else 1.0) for k in range(degree + 1))


def scaled_polynomial_design(x, degree: int, scale_base) -> np.ndarray:
    """Running products ``[1, x, x*x, ...]`` as in ``np.vander``, column k over ``scale_base**k``.

    The rows of an (m, n) ``x``, with (m, 1) scale bases, give an (m, n, degree + 1) stack.
    """
    x = np.asarray(x, dtype=float)
    degree = _check_count(degree, "degree", 0)
    design = np.ones(x.shape + (degree + 1,))
    for k in range(1, degree + 1):  # whole columns; multiply.accumulate loops row by row
        np.multiply(design[..., k - 1], x, out=design[..., k])
    scales = [_column_scales(degree, float(s)) for s in np.ravel(scale_base)]
    design /= np.reshape(scales, np.shape(scale_base) + (degree + 1,))
    if not np.all(np.isfinite(design)):
        raise ValueError(f"design for degree {degree} has non-finite entries")
    return design


def _warn_if_prior_dominated(degrees: list[int], n: int):
    if max(degrees) + 1 > n:
        _warnings.warn(f"largest degree {max(degrees)} needs {max(degrees) + 1} columns but only "
                       f"{n} observations are available; the fit is prior-dominated", stacklevel=3)


def polynomial_family(x, degrees: Sequence[int], sigma: float, lam: float) -> ModelSet:
    """Model set of polynomial regressions of the given degrees.

    Column k of each design is ``x**k`` divided by ``std(x)**k``, which keeps
    the posterior precision well conditioned at high degree.  The scaling is
    recorded in ``info`` (it amounts to a per-column rescaling of the prior,
    so evidence comparisons refer to the scaled parameterization).

    Every member's ``G`` is an uncopied view of one read-only design.  A
    degree needing more columns than there are observations is allowed
    but triggers a warning.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a nonempty vector")
    degrees = _check_degrees(degrees)
    _warn_if_prior_dominated(degrees, x.size)

    # Every member's design is the leading columns of the largest one.
    scale_base = float(np.std(x))
    design = scaled_polynomial_design(x, max(degrees), scale_base)
    design.setflags(write=False)  # so that each member keeps its view uncopied
    scales = _column_scales(max(degrees), scale_base)
    return ModelSet(
        members=tuple(GaussianLinearSpec(G=design[:, :p + 1], sigma=sigma, lam=lam)
                      for p in degrees),
        labels=tuple(f"degree-{p}" for p in degrees),
        info={"degrees": tuple(degrees), "x_std": scale_base,
              "column_scales": tuple(scales[:p + 1] for p in degrees)})


# ---------------------------------------------------------------------------
# Sweet-spot experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweetSpotReport:
    """Outcome of the polynomial degree selection experiment.

    ``counts[i]`` is how often ``degrees[i]`` was chosen by maximum
    evidence.  RMSE is out-of-sample against held-out noisy responses, so
    the noise scale is its floor; ``mean_regret`` is the average RMSE excess
    of the chosen degree over the per-replicate best degree.
    """

    degrees: tuple[int, ...]
    true_degree: int
    n: int
    sigma: float
    lam: float
    reps: int
    seed: int
    counts: np.ndarray
    modal_degree: int
    selection_frequency: np.ndarray
    chosen_degrees: np.ndarray
    best_degrees: np.ndarray
    rmse: np.ndarray
    mean_regret: float
    mean_best_rmse: float

    @property
    def regret_ratio(self) -> float:
        return self.mean_regret / self.mean_best_rmse


def sweet_spot_experiment(true_degree: int, degrees: Sequence[int], n: int,
                          sigma: float, lam: float, reps: int, seed: int) -> SweetSpotReport:
    """Degree selection versus predictive accuracy, by seeded replication.

    Each replicate draws standard-normal covariates, samples the true
    coefficients from the true-degree member's own prior, simulates
    responses, selects a degree by maximum evidence, and scores every
    candidate's MAP fit on a fresh test set of size ``10 n`` drawn from the
    same covariate distribution (with observation noise).  Reports how often
    each degree was chosen and the predictive regret of the selected degree
    against the per-replicate best.  Each degree is evaluated once per chunk
    of replicates, on their stacked designs, bit for bit as :func:`select` on
    each replicate's :func:`polynomial_family`, and so is the first failure.
    """
    degrees = _check_degrees(degrees)
    true_degree = _check_true_degree(true_degree, degrees)
    n = _check_count(n, "n")
    reps = _check_count(reps, "reps")
    seed = _check_count(seed, "seed", 0)
    sigma, lam = _check_scale(sigma, "sigma"), _check_scale(lam, "lam")
    _warn_if_prior_dominated(degrees, n)

    chosen = np.empty(reps, dtype=int)
    rmse = np.empty((reps, len(degrees)))
    spec = SimpleNamespace(n=n, sigma=sigma, lam=lam)  # and G, one degree's design stack
    width = max(1, _CHUNK_FLOATS // (10 * n * (max(degrees) + 1)))
    children = np.random.SeedSequence(seed).spawn(reps)
    for start in range(0, reps, width):
        draws = [(rng.standard_normal(n), rng.standard_normal(true_degree + 1) / lam,
                  sigma * rng.standard_normal(n), rng.standard_normal(10 * n),
                  sigma * rng.standard_normal(10 * n))
                 for rng in map(np.random.default_rng, children[start:start + width])]
        x, theta_true, noise, x_test, noise_test = (np.array(a) for a in zip(*draws))
        log_e = np.empty((len(draws), len(degrees)))
        scale_base = np.std(x, axis=1, keepdims=True)
        design = scaled_polynomial_design(x, max(degrees), scale_base)
        test_design = scaled_polynomial_design(x_test, max(degrees), scale_base)
        y = _matvec(design[..., :true_degree + 1], theta_true) + noise
        y_test = _matvec(test_design[..., :true_degree + 1], theta_true) + noise_test

        def alone(row, i):  # one replicate's design and response, as if never stacked
            spec.G = design[row, :, :degrees[i] + 1]
            _evidence_terms(spec, y[row])
        for i, p in enumerate(degrees):
            spec.G = design[..., :p + 1]
            with _failure(i, replicate=start, alone=(alone, len(draws), range(len(degrees)))):
                _, theta_hat, log_fit, flexibility = _evidence_terms(spec, y)
            log_e[:, i] = log_fit - flexibility
            pred = _matvec(test_design[..., :p + 1], theta_hat)
            rmse[start:start + len(draws), i] = np.sqrt(np.mean((pred - y_test) ** 2, axis=-1))
        chosen[start:start + len(draws)] = np.argmax(_tied(None, log_e, "max-evidence")[1], axis=1)

    rows, best = np.arange(reps), rmse.argmin(axis=1)
    counts = np.bincount(chosen, minlength=len(degrees))
    return SweetSpotReport(
        degrees=tuple(degrees), true_degree=true_degree, n=n, sigma=float(sigma),
        lam=float(lam), reps=reps, seed=seed, counts=counts,
        modal_degree=degrees[int(np.argmax(counts))],
        selection_frequency=counts / reps, chosen_degrees=np.array(degrees)[chosen],
        best_degrees=np.array(degrees)[best], rmse=rmse,
        mean_regret=float((rmse[rows, chosen] - rmse[rows, best]).mean()),
        mean_best_rmse=float(rmse[rows, best].mean()))


# ---------------------------------------------------------------------------
# Evidence crossover between a stiff and a flexible scalar model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrossoverReport:
    """Log-evidence of two scalar-observation models across a response grid.

    The flexible model spreads its predictive density over a wider range,
    so the stiff model wins near the center and loses in the tails; the
    ``crossovers`` are the response values where the preference flips: the
    exact roots ``±r`` of the difference that the grid brackets.
    """

    y_grid: np.ndarray
    log_evidence_simple: np.ndarray
    log_evidence_complex: np.ndarray
    crossovers: tuple[float, ...]
    sign_pattern: np.ndarray
    marginal_variance_simple: float
    marginal_variance_complex: float

    @property
    def diff(self) -> np.ndarray:
        return self.log_evidence_simple - self.log_evidence_complex


def mackay_crossover(model_simple: GaussianLinearSpec,
                     model_complex: GaussianLinearSpec, y_grid) -> CrossoverReport:
    """Evidence comparison of two single-observation models over a y grid.

    Both models must have exactly one observation row.  Each model's
    log-evidence at every grid value comes from one batch and one
    factorization, equal bit for bit to :func:`glm_log_evidence` at each
    point.  Each log-evidence is ``log N(y; 0, v)`` with the marginal
    variance ``v = sigma^2 + |g|^2 / lam^2``, so the difference vanishes
    exactly at ``y = ±r``, ``r^2 = log(v_c / v_s) / (1/v_s - 1/v_c)``.
    Each root is reported, once and in ascending order, where a sign change
    of the grid difference brackets it; equal variances have no root.  When
    the flexible model's marginal predictive variance strictly exceeds the
    stiff model's, both preference regions must appear on the grid (widen
    the grid otherwise).
    """
    for name, spec in (("model_simple", model_simple), ("model_complex", model_complex)):
        if spec.n != 1:
            raise ValueError(f"{name} must have a single observation row, got n={spec.n}")
    y_grid = _check_y_grid(y_grid)

    log_e_simple, log_e_complex = (_log_evidences(spec, y_grid[:, None])
                                   for spec in (model_simple, model_complex))
    diff = log_e_simple - log_e_complex

    var_simple, var_complex = (spec.sigma**2 + float(spec.G[0] @ spec.G[0]) / spec.lam**2
                               for spec in (model_simple, model_complex))
    if var_complex > var_simple and not (np.any(diff > 0) and np.any(diff < 0)):
        raise ValueError("the grid does not exhibit both preference regions although the "
                         "flexible model has the wider predictive density; widen y_grid")

    sign = np.sign(diff)
    brackets = [(y_grid[i], y_grid[i + 1]) for i in np.flatnonzero(sign[:-1] * sign[1:] < 0)]
    crossovers = ()
    # Equal variances give equal evidences at every y: their diff is rounding noise.
    if var_simple != var_complex:
        # log N(y; 0, v_lo) = log N(y; 0, v_hi) at y^2 = log(v_hi/v_lo) / (1/v_lo - 1/v_hi),
        # written with the relative gap so that no difference of reciprocals cancels.
        v_lo, v_hi = sorted((var_simple, var_complex))
        gap = (v_hi - v_lo) / v_lo
        root = np.sqrt(v_hi * np.log1p(gap) / gap)
        crossovers = tuple(y for y in (-root, root)
                           if any(lo <= y <= hi for lo, hi in brackets))

    return CrossoverReport(
        y_grid=y_grid, log_evidence_simple=log_e_simple,
        log_evidence_complex=log_e_complex, crossovers=crossovers,
        sign_pattern=sign.astype(np.int8), marginal_variance_simple=var_simple,
        marginal_variance_complex=var_complex)
