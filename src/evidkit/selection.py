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
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .evidence import DEFAULT_GRID, evidence_laplace, evidence_quadrature
from .exceptions import EvidkitError, SelectionFailure
from .generic import GenericModelSpec, normalize_prior
from .glm import GaussianLinearSpec, ObservationSet, glm_log_evidence
from .records import EvidenceDecomposition

__all__ = [
    "ModelSet",
    "SelectionOutcome",
    "RiskReport",
    "SweetSpotReport",
    "CrossoverReport",
    "select",
    "risk_mc",
    "polynomial_family",
    "scaled_polynomial_design",
    "sweet_spot_experiment",
    "mackay_crossover",
]

TIE_TOL = 1e-12
RULES = ("max-evidence", "max-posterior")


def _check_weights(weights, k: int) -> np.ndarray:
    """Prior model weights as an array: k positive values summing to 1 within 1e-12."""
    weights = np.array(weights, dtype=float)
    if weights.shape != (k,):
        raise ValueError(f"{weights.size} weights for {k} members")
    if not np.all(weights > 0):
        raise ValueError("weights must all be positive")
    if not abs(weights.sum() - 1.0) <= 1e-12:
        raise ValueError(f"weights sum to {weights.sum()!r}, expected 1 within 1e-12")
    return weights


def _check_degrees(degrees) -> list[int]:
    """Polynomial degrees as ints: nonempty, nonnegative and distinct."""
    degrees = [int(p) for p in degrees]
    if len(degrees) == 0:
        raise ValueError("degrees must be nonempty")
    if any(p < 0 for p in degrees):
        raise ValueError("degrees must be nonnegative")
    if len(set(degrees)) != len(degrees):
        raise ValueError("degrees must be distinct")
    return degrees


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
    grid = grid_points_per_dim or DEFAULT_GRID.get(member.dim)
    if grid is None:
        raise ValueError(f"no default grid for dimension {member.dim}; pass grid_points_per_dim")
    prior = normalize_prior(member, grid)
    if generic_estimator == "quadrature":
        return evidence_quadrature(member, prior, grid)
    if generic_estimator == "laplace":
        return evidence_laplace(member, prior)
    raise ValueError(f"unknown generic estimator {generic_estimator!r}")


def _evaluate(model_set: ModelSet, obs: ObservationSet, generic_estimator: str = "laplace",
              grid_points_per_dim: int | None = None) -> tuple[EvidenceDecomposition, ...]:
    decomps = []
    for i, member in enumerate(model_set.members):
        try:
            decomps.append(_member_evidence(member, obs, generic_estimator,
                                            grid_points_per_dim))
        except EvidkitError as exc:
            raise SelectionFailure(
                f"evidence evaluation failed for member {i}: {exc}", index=i) from exc
    return tuple(decomps)


def _choose(model_set: ModelSet, decomps, rule: str) -> SelectionOutcome:
    log_evidences = np.array([dec.log_evidence for dec in decomps])
    if rule == "max-posterior":
        log_scores = np.log(model_set.weights) + log_evidences
    else:
        log_scores = log_evidences
    top = float(log_scores.max())
    tied = np.flatnonzero(log_scores >= top - TIE_TOL)
    chosen = int(tied[0])
    return SelectionOutcome(
        chosen=chosen, log_scores=log_scores, rule=rule,
        tie_broken=bool(tied.size > 1), decompositions=decomps)


def select(model_set: ModelSet, obs: ObservationSet, rule: str = "max-evidence", *,
           generic_estimator: str = "laplace",
           grid_points_per_dim: int | None = None) -> SelectionOutcome:
    """Select one member by maximum evidence or maximum posterior probability.

    ``max-evidence`` scores each member by its log-evidence;
    ``max-posterior`` adds the log prior weight, which is the Bayes rule for
    zero-one loss.  With uniform weights the two rules agree, since the
    scores differ by a constant.  Gaussian linear members use the exact
    closed form; black-box members use the configured generic estimator.

    Ties within 1e-12 of the maximum go to the lowest index and set
    ``tie_broken``.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    return _choose(model_set, _evaluate(model_set, obs, generic_estimator,
                                        grid_points_per_dim), rule)


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
    """
    reps = int(reps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rules = tuple(rules)
    for rule in rules:
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    if generator is None:
        generator = prior_predictive_generator(model_set)

    k = len(model_set)
    errors = np.zeros((k, len(rules)))
    true_counts = np.zeros(k)
    children = np.random.SeedSequence(seed).spawn(reps)
    for rep in range(reps):
        rng = np.random.default_rng(children[rep])
        try:
            true_index, obs = generator(rng)
            true_index = int(true_index)
            if not 0 <= true_index < k:
                raise ValueError(f"generator returned out-of-range true index {true_index}")
            true_counts[true_index] += 1
            decomps = _evaluate(model_set, obs)
            for r, rule in enumerate(rules):
                if _choose(model_set, decomps, rule).chosen != true_index:
                    errors[true_index, r] += 1
        except EvidkitError as exc:
            raise SelectionFailure(
                f"replicate {rep} failed: {exc}", replicate=rep,
                index=getattr(exc, "index", None)) from exc

    risks = errors.sum(axis=0) / reps
    with np.errstate(invalid="ignore", divide="ignore"):
        per_true = errors / true_counts[:, None]
    return RiskReport(rule_names=rules, risks=risks, reps=reps, seed=int(seed),
                      per_true_model=per_true, true_counts=true_counts)


# ---------------------------------------------------------------------------
# Polynomial regression family
# ---------------------------------------------------------------------------

def _column_scales(degree: int, scale_base: float) -> tuple[float, ...]:
    """Divisor of each design column: ``scale_base**k``, or 1 for a constant covariate."""
    return tuple((scale_base**k if scale_base > 0 else 1.0) for k in range(degree + 1))


def scaled_polynomial_design(x, degree: int, scale_base: float) -> np.ndarray:
    """Design matrix ``[1, x, x^2, ...]`` with column k divided by ``scale_base**k``."""
    x = np.asarray(x, dtype=float)
    design = np.column_stack(
        [x**k / scale for k, scale in enumerate(_column_scales(degree, scale_base))])
    if not np.all(np.isfinite(design)):
        raise ValueError(f"design for degree {degree} has non-finite entries")
    return design


def polynomial_family(x, degrees: Sequence[int], sigma: float, lam: float) -> ModelSet:
    """Model set of polynomial regressions of the given degrees.

    Column k of each design is ``x**k`` divided by ``std(x)**k``, which keeps
    the posterior precision well conditioned at high degree.  The scaling is
    recorded in ``info`` (it amounts to a per-column rescaling of the prior,
    so evidence comparisons refer to the scaled parameterization).

    A degree needing more columns than there are observations is allowed
    but triggers a warning.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a nonempty vector")
    degrees = _check_degrees(degrees)
    if max(degrees) + 1 > x.size:
        _warnings.warn(
            f"largest degree {max(degrees)} needs {max(degrees) + 1} columns but only "
            f"{x.size} observations are available; the fit is prior-dominated",
            stacklevel=2)

    # Every member's design is the leading columns of the largest one.
    scale_base = float(np.std(x))
    design = scaled_polynomial_design(x, max(degrees), scale_base)
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
    against the per-replicate best.
    """
    degrees = _check_degrees(degrees)
    true_degree = int(true_degree)
    if true_degree not in degrees:
        raise ValueError(f"true_degree {true_degree} is not among degrees {degrees}")
    n = int(n)
    reps = int(reps)
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")

    true_pos = degrees.index(true_degree)
    k = len(degrees)
    counts = np.zeros(k, dtype=int)
    chosen_deg = np.empty(reps, dtype=int)
    best_deg = np.empty(reps, dtype=int)
    rmse = np.empty((reps, k))
    regrets = np.empty(reps)
    best_rmses = np.empty(reps)

    children = np.random.SeedSequence(seed).spawn(reps)
    for rep in range(reps):
        rng = np.random.default_rng(children[rep])
        x = rng.standard_normal(n)
        family = polynomial_family(x, degrees, sigma, lam)
        scale_base = family.info["x_std"]
        true_member = family.members[true_pos]
        theta_true = rng.standard_normal(true_member.d) / lam
        y = true_member.G @ theta_true + sigma * rng.standard_normal(n)
        obs = ObservationSet(y=y, x=x)

        outcome = select(family, obs, "max-evidence")
        chosen_deg[rep] = degrees[outcome.chosen]
        counts[outcome.chosen] += 1

        x_test = rng.standard_normal(10 * n)
        test_design = scaled_polynomial_design(x_test, max(degrees), scale_base)
        mean_test = test_design[:, :true_degree + 1] @ theta_true
        y_test = mean_test + sigma * rng.standard_normal(10 * n)
        for i, (p, dec) in enumerate(zip(degrees, outcome.decompositions)):
            pred = test_design[:, :p + 1] @ dec.theta_hat
            rmse[rep, i] = float(np.sqrt(np.mean((pred - y_test) ** 2)))
        best = int(np.argmin(rmse[rep]))
        best_deg[rep] = degrees[best]
        best_rmses[rep] = rmse[rep, best]
        regrets[rep] = rmse[rep, outcome.chosen] - rmse[rep, best]

    return SweetSpotReport(
        degrees=tuple(degrees), true_degree=true_degree, n=n, sigma=float(sigma),
        lam=float(lam), reps=reps, seed=int(seed), counts=counts,
        modal_degree=int(degrees[int(np.argmax(counts))]),
        selection_frequency=counts / reps, chosen_degrees=chosen_deg,
        best_degrees=best_deg, rmse=rmse,
        mean_regret=float(regrets.mean()), mean_best_rmse=float(best_rmses.mean()))


# ---------------------------------------------------------------------------
# Evidence crossover between a stiff and a flexible scalar model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrossoverReport:
    """Log-evidence of two scalar-observation models across a response grid.

    The flexible model spreads its predictive density over a wider range,
    so the stiff model wins near the center and loses in the tails; the
    ``crossovers`` are the response values where the preference flips,
    located by bisection.
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


def _scalar_marginal_variance(spec: GaussianLinearSpec) -> float:
    g = spec.G[0]
    return spec.sigma**2 + float(g @ g) / spec.lam**2


def mackay_crossover(model_simple: GaussianLinearSpec,
                     model_complex: GaussianLinearSpec, y_grid) -> CrossoverReport:
    """Evidence comparison of two single-observation models over a y grid.

    Both models must have exactly one observation row.  The log-evidence of
    each model is evaluated at every grid value of the response; sign
    changes of the difference are refined by bisection until the difference
    at the reported point is below 1e-8.  When the flexible model's marginal
    predictive variance strictly exceeds the stiff model's, both preference
    regions must appear on the grid (widen the grid otherwise).
    """
    for name, spec in (("model_simple", model_simple), ("model_complex", model_complex)):
        if spec.n != 1:
            raise ValueError(f"{name} must have a single observation row, got n={spec.n}")
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size < 2:
        raise ValueError("y_grid must be a vector with at least 2 points")
    if np.any(np.diff(y_grid) <= 0):
        raise ValueError("y_grid must be strictly increasing")

    def log_evidences(y):
        obs = ObservationSet(y=[y])
        return (glm_log_evidence(model_simple, obs).log_evidence,
                glm_log_evidence(model_complex, obs).log_evidence)

    log_e_simple, log_e_complex = np.array([log_evidences(y) for y in y_grid]).T
    diff = log_e_simple - log_e_complex
    signs = np.sign(diff).astype(np.int8)

    crossovers = []
    for i in range(y_grid.size - 1):
        if diff[i] == 0.0 or diff[i] * diff[i + 1] >= 0.0:
            continue
        lo, hi = y_grid[i], y_grid[i + 1]
        f_lo = diff[i]
        while hi - lo > 1e-12 * max(1.0, abs(lo) + abs(hi)):
            mid = (lo + hi) / 2.0
            f_mid = np.subtract(*log_evidences(mid))
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        crossovers.append((lo + hi) / 2.0)

    var_simple = _scalar_marginal_variance(model_simple)
    var_complex = _scalar_marginal_variance(model_complex)
    if var_complex > var_simple:
        if not (np.any(diff > 0) and np.any(diff < 0)):
            raise ValueError(
                "the grid does not exhibit both preference regions although the "
                "flexible model has the wider predictive density; widen y_grid")

    return CrossoverReport(
        y_grid=y_grid, log_evidence_simple=log_e_simple,
        log_evidence_complex=log_e_complex, crossovers=tuple(crossovers),
        sign_pattern=signs, marginal_variance_simple=var_simple,
        marginal_variance_complex=var_complex)
