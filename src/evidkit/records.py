"""Result records shared between the closed-form and generic evidence paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = ["EvidenceDecomposition"]

ESTIMATORS = ("glm-exact", "quadrature", "laplace", "importance-sampling")


@dataclass(frozen=True, eq=False)
class EvidenceDecomposition:
    """Log-evidence split into fit at the MAP minus a flexibility penalty.

    The identity ``log_evidence = log_fit - flexibility`` holds by
    construction for every estimator: the exact route computes flexibility
    in closed form and derives the evidence, while the numerical estimators
    compute the evidence and derive flexibility as the difference.

    Attributes
    ----------
    log_evidence : float
        Log of the marginal likelihood of the observations.
    log_fit : float
        Log-likelihood at the MAP estimate, normalization constants included.
    flexibility : float
        Complexity penalty; log posterior density over prior density at the MAP.
    estimator : str
        One of ``glm-exact``, ``quadrature``, ``laplace``, ``importance-sampling``.
    err_estimate : float
        Estimated numerical error of ``log_evidence``. Zero for the exact
        route; NaN when no estimate is available (Laplace above dimension 3).
    theta_hat : ndarray
        MAP estimate the decomposition was evaluated at.
    warnings : tuple of str
        Non-fatal diagnostics, e.g. a rank warning for a nearly collinear
        model matrix.
    info : mapping
        Estimator-specific metadata (grid sizes, proposal inflation, ESS, ...).
    """

    log_evidence: float
    log_fit: float
    flexibility: float
    estimator: str
    err_estimate: float
    theta_hat: np.ndarray
    warnings: tuple[str, ...] = ()
    info: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATORS}")
        object.__setattr__(self, "theta_hat", np.asarray(self.theta_hat, dtype=float))
