"""The benchmark's three workloads.

A workload builds every input from the workload seed in ``setup`` and turns
that state into a list of :class:`Op` in ``ops``.  An op is one timed call
into evidkit's public API (an in-process ``evidkit.cli.main(argv)`` for CLI
commands, a library call otherwise) plus an untimed check of its output.
Functions are looked up on the ``evidkit`` modules at call time, so a
:class:`tracing.Tracer` installed around an op sees every call.  An op that
raises (a nonzero CLI exit raises :class:`OpError`) has failed; one whose
output fails its check has also given a wrong answer.  Checks of inputs
that are not an op's output (the closed forms against an independent
oracle) run in ``setup`` and land in ``state["setup_failures"]``.

``size="tiny"`` shrinks every workload to a fraction of a second; the
benchmark uses it for warm-up and its self-tests use it for smoke runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.linalg import solve_triangular

import evidkit as ek
import evidkit.cli as ek_cli

LOG_2PI = math.log(2.0 * math.pi)
IDENTITY_TOL = 1e-9
ORACLE_TOL = 1e-8

# Quadrature grids per dimension used by ``select`` for generic members;
# fixed here so the benchmark does not move when the package's tables do.
SELECT_GRID = {1: 2001, 2: 201, 3: 41}


class CheckFailed(Exception):
    """An op's output failed a benchmark check."""


class OpError(Exception):
    """An op ended without an output to check, as a nonzero CLI exit does."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, "PassRecord"], None]


@dataclass
class PassRecord:
    """What one pass over a workload's ops produced: timings, failures, check results."""

    times: list = field(default_factory=list)  # (op kind, seconds), in op order
    probes: list = field(default_factory=list)  # probe seconds, before and after each op
    errors: list = field(default_factory=list)  # (op kind, reason) of ops that raised
    failures: list = field(default_factory=list)  # (op kind, reason) of failed checks
    digests: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    quad_errs: list = field(default_factory=list)
    laplace_errs: list = field(default_factory=list)
    is_errs: list = field(default_factory=list)
    err_bound_misses: int = 0

    @property
    def wall(self) -> float:
        return sum(dt for _, dt in self.times)

    def record_error(self, errors, dec, exact, bounded):
        err = abs(dec.log_evidence - exact)
        errors.append(err)
        if bounded and not err <= dec.err_estimate:
            self.err_bound_misses += 1


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inputs_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def check_identity(log_evidence, log_fit, flexibility, what="decomposition"):
    values = (log_evidence, log_fit, flexibility)
    require(all(math.isfinite(v) for v in values), f"{what}: non-finite value {values}")
    gap = abs(log_evidence - (log_fit - flexibility))
    require(gap <= IDENTITY_TOL, f"{what}: log_evidence - (log_fit - flexibility) = {gap:.3e}")


def check_decomposition(dec, what="decomposition"):
    check_identity(dec.log_evidence, dec.log_fit, dec.flexibility, what)


def oracle_log_evidence(G, sigma, lam, y) -> float:
    """Prior-predictive density ``y ~ N(0, sigma^2 I + G G' / lam^2)``.

    Independent of the posterior-precision route the package takes.
    """
    y = np.asarray(y, dtype=float)
    cov = sigma**2 * np.eye(y.size) + (G @ G.T) / lam**2
    chol = np.linalg.cholesky(cov)
    z = solve_triangular(chol, y, lower=True)
    return float(-0.5 * (y.size * LOG_2PI + 2.0 * np.sum(np.log(np.diag(chol))) + z @ z))


def oracle_failures(kind, cases):
    """``(kind, reason)`` for each ``(spec, obs, exact)`` whose closed form misses the oracle."""
    failures = []
    for spec, obs, exact in cases:
        gap = abs(exact.log_evidence - oracle_log_evidence(spec.G, spec.sigma, spec.lam, obs.y))
        if not gap < ORACLE_TOL:
            failures.append((kind, f"closed form differs from the prior-predictive oracle "
                                   f"by {gap:.3e}"))
    return failures


def cli_op(kind, argv, out_path, check_output):
    """Op running ``evidkit.cli.main(argv)``; the check digests and parses the output."""

    def call():
        code = ek_cli.main(argv)
        if code != 0:
            raise OpError(f"{argv[0]} exited with code {code}")
        return code

    def check(code, record):
        with open(out_path, "rb") as handle:
            data = handle.read()
        record.digests[os.path.basename(out_path)] = _digest(data)
        check_output(data.decode("utf-8"), record)

    return Op(kind, call, check)


def _json_result(text):
    return json.loads(text)["result"]


def _csv_rows(text):
    return list(csv.reader(io.StringIO(
        "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#")))))


# ---------------------------------------------------------------------------
# mc-experiments: seeded CLI experiments over many small closed-form models
# ---------------------------------------------------------------------------

class McExperiments:
    name = "mc-experiments"
    sizes = {
        "full": {"risk_reps": 500, "poly_reps": 200, "grid": 1001,
                 "ns": "100,1000,10000,100000"},
        "tiny": {"risk_reps": 4, "poly_reps": 3, "grid": 101, "ns": "100,1000"},
    }
    SIGMA = 0.3
    MACKAY_LAMBDAS = (10.0, 0.1)

    def setup(self, seed, size, workdir):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        seeds = [str(s) for s in rng.integers(0, 2**31 - 1, size=4)]
        y_min = -25.0 + float(rng.uniform(-1.0, 1.0))
        y_max = 25.0 + float(rng.uniform(-1.0, 1.0))
        os.makedirs(workdir, exist_ok=True)
        out = {name: os.path.join(workdir, name) for name in
               ("risk.json", "poly-demo.json", "mackay-demo.csv", "bic-sweep.json")}
        argvs = {
            "risk": ["risk", "--degrees", "0..5", "--n", "100", "--sigma", str(self.SIGMA),
                     "--lambda", "1", "--reps", str(p["risk_reps"]), "--seed", seeds[0],
                     "--out", out["risk.json"]],
            "poly-demo": ["poly-demo", "--true-degree", "3", "--degrees", "0..9", "--n", "100",
                          "--sigma", str(self.SIGMA), "--lambda", "1",
                          "--reps", str(p["poly_reps"]), "--seed", seeds[1],
                          "--out", out["poly-demo.json"]],
            "mackay-demo": ["mackay-demo", "--lambda-simple", str(self.MACKAY_LAMBDAS[0]),
                            "--lambda-complex", str(self.MACKAY_LAMBDAS[1]),
                            "--y-min", repr(y_min), "--y-max", repr(y_max),
                            "--grid", str(p["grid"]), "--seed", seeds[2], "--format", "csv",
                            "--out", out["mackay-demo.csv"]],
            "bic-sweep": ["bic-sweep", "--d", "3", "--ns", p["ns"], "--seed", seeds[3],
                          "--out", out["bic-sweep.json"]],
        }
        return {"argvs": argvs, "out": out, "params": p,
                "inputs_sha256": _inputs_digest(argvs), "setup_failures": []}

    def ops(self, state, instrument):
        argvs, out, p = state["argvs"], state["out"], state["params"]
        return [
            cli_op("cli.risk", argvs["risk"], out["risk.json"],
                   lambda text, rec: self._check_risk(text, p["risk_reps"])),
            cli_op("cli.poly-demo", argvs["poly-demo"], out["poly-demo.json"],
                   lambda text, rec: self._check_poly(text, p["poly_reps"])),
            cli_op("cli.mackay-demo", argvs["mackay-demo"], out["mackay-demo.csv"],
                   lambda text, rec: self._check_mackay(text, p["grid"])),
            cli_op("cli.bic-sweep", argvs["bic-sweep"], out["bic-sweep.json"],
                   lambda text, rec: self._check_bic(text)),
        ]

    @staticmethod
    def _check_risk(text, reps):
        r = _json_result(text)
        require(r["rule_names"] == ["max-evidence", "max-posterior"], "unexpected rules")
        require(sum(r["true_counts"]) == reps, "true counts do not sum to reps")
        risks = np.array(r["risks"], dtype=float)
        require(np.all((risks >= 0) & (risks <= 1)), f"risk outside [0, 1]: {risks}")
        per_true = np.array(r["per_true_model"], dtype=float)
        require(risks[0] == risks[1] and np.array_equal(per_true[:, 0], per_true[:, 1],
                                                        equal_nan=True),
                "max-evidence and max-posterior disagree under uniform weights")

    @staticmethod
    def _check_poly(text, reps):
        r = _json_result(text)
        require(sum(r["counts"]) == reps, f"counts sum to {sum(r['counts'])}, not {reps}")
        require(r["modal_degree"] in r["degrees"], "modal degree not among the candidates")
        require(math.isfinite(r["mean_regret"]) and r["mean_regret"] >= 0, "bad mean regret")

    def _check_mackay(self, text, grid):
        rows = _csv_rows(text)
        require(rows[0] == ["kind", "y", "log_evidence_simple", "log_evidence_complex",
                            "difference"], "unexpected header")
        grid_rows = np.array([[float(v) for v in row[1:]] for row in rows[1:]
                              if row[0] == "grid"])
        crossings = [[float(v) for v in row[1:]] for row in rows[1:] if row[0] == "crossover"]
        require(len(grid_rows) == grid, f"{len(grid_rows)} grid rows, expected {grid}")
        y = grid_rows[:, 0]
        for column, lam in zip((1, 2), self.MACKAY_LAMBDAS):
            # One observation, G = [[1]]: y ~ N(0, sigma^2 + 1/lam^2) with sigma = 1.
            var = 1.0 + 1.0 / lam**2
            oracle = -0.5 * (LOG_2PI + np.log(var) + y**2 / var)
            gap = float(np.max(np.abs(grid_rows[:, column] - oracle)))
            require(gap < ORACLE_TOL, f"grid evidence differs from the oracle by {gap:.3e}")
        require(len(crossings) == 2, f"{len(crossings)} crossovers, expected 2")
        require(all(abs(row[3]) < 1e-8 for row in crossings), "crossover residual >= 1e-8")

    @staticmethod
    def _check_bic(text):
        r = _json_result(text)
        flex = np.array(r["flexibilities"])
        expected_gaps = flex - 0.5 * r["d"] * np.log(np.array(r["ns"], dtype=float))
        require(np.all(flex > 0), "flexibility is not positive")
        require(np.max(np.abs(np.array(r["gaps"]) - expected_gaps)) <= IDENTITY_TOL,
                "gaps differ from flexibility - (d/2) log n")


# ---------------------------------------------------------------------------
# blackbox-estimators: quadrature, Laplace and importance sampling
# ---------------------------------------------------------------------------

def logistic_model(X, y, vectorized):
    """Logistic regression with a unit Gaussian penalty on the box [-10, 10]^d."""
    d = X.shape[1]
    if vectorized:
        def log_lik(points):
            eta = points @ X.T
            return (y[None, :] * eta - np.logaddexp(0.0, eta)).sum(axis=1)

        def regularizer(points):
            return 0.5 * np.einsum("ij,ij->i", points, points)
    else:
        def log_lik(theta):
            eta = X @ theta
            return float(np.sum(y * eta - np.logaddexp(0.0, eta)))

        def regularizer(theta):
            return 0.5 * float(theta @ theta)
    return ek.GenericModelSpec(dim=d, log_lik=log_lik, regularizer=regularizer,
                               support=[[-10.0, 10.0]] * d, vectorized=vectorized)


def _logistic_data(rng, n, d):
    """Covariates ``[x]`` (d=1) or ``[1, x]`` (d=2) and Bernoulli responses."""
    x = rng.standard_normal(n)
    X = x[:, None] if d == 1 else np.column_stack([np.ones(n), x])
    theta = rng.standard_normal(d)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-X @ theta))).astype(float)
    return X, y


class BlackboxEstimators:
    name = "blackbox-estimators"
    sizes = {
        # check_grid None leaves Laplace's reference quadrature at its default.
        "full": {"models_per_dim": 10, "n": 200, "draws": 20_000, "grid": SELECT_GRID,
                 "check_grid": None, "logistic_n": 30},
        "tiny": {"models_per_dim": 1, "n": 40, "draws": 500, "grid": {1: 101, 2: 21, 3: 11},
                 "check_grid": 21, "logistic_n": 20},
    }
    SIGMA, LAM = 0.5, 1.0

    def setup(self, seed, size, workdir):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        glms, arrays = [], []
        for d in (1, 2, 3):
            for _ in range(p["models_per_dim"]):
                x = rng.standard_normal(p["n"])
                G = ek.scaled_polynomial_design(x, d - 1, float(np.std(x)))
                y = G @ (rng.standard_normal(d) / self.LAM) \
                    + self.SIGMA * rng.standard_normal(p["n"])
                spec = ek.GaussianLinearSpec(G=G, sigma=self.SIGMA, lam=self.LAM)
                obs = ek.ObservationSet(y=y)
                exact = ek.glm_log_evidence(spec, obs)
                glms.append({"spec": spec, "obs": obs, "exact": exact,
                             "model": ek.wrap_glm(spec, obs),
                             "prior": ek.glm_normalized_prior(spec),
                             "seed": int(rng.integers(0, 2**31 - 1))})
                arrays += [x, y]
        logistic = []
        for d in (1, 2):
            X, y = _logistic_data(rng, p["logistic_n"], d)
            logistic.append(logistic_model(X, y, vectorized=False))
            arrays += [X.ravel(), y]
        X, y = _logistic_data(rng, p["logistic_n"], 2)
        members = (logistic_model(X[:, 1:], y, vectorized=True),
                   logistic_model(X, y, vectorized=True))
        arrays += [X.ravel(), y]
        return {"params": p, "glms": glms, "logistic": logistic, "members": members,
                "members_obs": ek.ObservationSet(y=y), "inputs_sha256": _inputs_digest(*arrays),
                "setup_failures": oracle_failures(
                    "glm_log_evidence", [(g["spec"], g["obs"], g["exact"]) for g in glms])}

    def ops(self, state, instrument):
        p = state["params"]
        ops = []
        for g in state["glms"]:
            ops += self._glm_ops(g, instrument(g["model"]), p)
        for model in state["logistic"]:
            ops += self._logistic_ops(instrument(model), p["grid"][model.dim], p["check_grid"])
        model_set = ek.ModelSet(members=tuple(instrument(m) for m in state["members"]))
        obs = state["members_obs"]
        ops.append(Op("select-generic",
                      lambda: ek.select(model_set, obs, generic_estimator="quadrature"),
                      self._check_select))
        return ops

    @staticmethod
    def _glm_ops(g, model, p):
        d, prior, exact = model.dim, g["prior"], g["exact"]
        # The estimators search for the MAP from their default start, as a
        # caller who passes none gets it.

        def check_search(result, record):
            tol = 1e-5 * (1.0 + np.abs(exact.theta_hat))
            require(np.all(np.abs(result.theta - exact.theta_hat) <= tol),
                    f"multistart MAP {result.theta} is not the closed-form MAP {exact.theta_hat}")

        def check_quadrature(dec, record):
            check_decomposition(dec, "quadrature")
            record.record_error(record.quad_errs, dec, exact.log_evidence, bounded=True)

        def check_laplace(dec, record):
            check_decomposition(dec, "laplace")
            record.record_error(record.laplace_errs, dec, exact.log_evidence, bounded=True)

        def check_importance(dec, record):
            check_decomposition(dec, "importance-sampling")
            record.record_error(record.is_errs, dec, exact.log_evidence, bounded=False)

        return [
            Op(f"map_optimize_multistart-d{d}",
               lambda: ek.map_optimize_multistart(model, g["seed"], box=model.effective_box),
               check_search),
            Op(f"evidence_quadrature-d{d}",
               lambda: ek.evidence_quadrature(model, prior, p["grid"][d]), check_quadrature),
            Op(f"evidence_laplace-d{d}", lambda: ek.evidence_laplace(model, prior), check_laplace),
            Op(f"evidence_importance-d{d}",
               lambda: ek.evidence_importance(model, prior, p["draws"], g["seed"]),
               check_importance),
        ]

    @staticmethod
    def _logistic_ops(model, grid, check_grid):
        d = model.dim
        priors = [None]  # the normalize op's result, read by the Laplace op after it

        def normalize():
            priors[0] = ek.normalize_prior(model, grid)
            return priors[0]

        def check_prior(prior, record):
            # exp(-|theta|^2/2) has all but 1e-22 of its mass inside [-10, 10]^d.
            gap = abs(prior.log_norm_const - 0.5 * d * LOG_2PI)
            require(gap < 1e-6, f"prior normalizer off the Gaussian value by {gap:.3e}")

        def check_laplace(dec, record):
            check_decomposition(dec, "laplace")
            require(math.isfinite(dec.err_estimate), "laplace error estimate is not finite")

        return [
            Op(f"normalize_prior-scalar-d{d}", normalize, check_prior),
            Op(f"evidence_laplace-scalar-d{d}",
               lambda: ek.evidence_laplace(model, priors[0], err_check_grid=check_grid),
               check_laplace),
        ]

    @staticmethod
    def _check_select(outcome, record):
        for dec in outcome.decompositions:
            check_decomposition(dec, "select member")
        scores = np.array([dec.log_evidence for dec in outcome.decompositions])
        require(np.array_equal(outcome.log_scores, scores), "scores are not the log-evidences")
        require(outcome.chosen == int(np.argmax(scores)), "select did not pick the best score")


# ---------------------------------------------------------------------------
# large-n: closed-form evidence and CSV parsing at n = 100 000
# ---------------------------------------------------------------------------

class LargeN:
    name = "large-n"
    sizes = {
        "full": {"n": 100_000, "reps": 20, "quad_n": 1000, "quad_grid": 201},
        "tiny": {"n": 2000, "reps": 3, "quad_n": 100, "quad_grid": 41},
    }
    SIGMA, LAM = 0.3, 1.0
    TRUE_DEGREE = 3

    def setup(self, seed, size, workdir):
        p = self.sizes[size]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(p["n"])
        theta = rng.standard_normal(self.TRUE_DEGREE + 1)
        # Keep the cubic term clearly away from zero, so the true degree is 3.
        theta[-1] = math.copysign(max(abs(theta[-1]), 0.5), theta[-1])
        y = np.polynomial.polynomial.polyval(x, theta) + self.SIGMA * rng.standard_normal(x.size)
        os.makedirs(workdir, exist_ok=True)
        data_path = os.path.join(workdir, "xy.csv")
        np.savetxt(data_path, np.column_stack([x, y]), fmt="%.17g", delimiter=",",
                   header="x,y", comments="")
        big = ek.GaussianLinearSpec(G=ek.scaled_polynomial_design(x, 9, float(np.std(x))),
                                    sigma=self.SIGMA, lam=self.LAM)
        big_obs = ek.ObservationSet(y=y, x=x)

        x2 = rng.standard_normal(p["quad_n"])
        G2 = np.column_stack([np.ones(x2.size), x2])
        y2 = G2 @ rng.standard_normal(2) + 0.5 * rng.standard_normal(x2.size)
        quad_spec = ek.GaussianLinearSpec(G=G2, sigma=0.5, lam=self.LAM)
        quad_obs = ek.ObservationSet(y=y2)
        quad_exact = ek.glm_log_evidence(quad_spec, quad_obs)
        cli_seed = str(int(rng.integers(0, 2**31 - 1)))
        common = ["--data", data_path, "--sigma", str(self.SIGMA), "--lambda", "1",
                  "--seed", cli_seed]
        out = {name: os.path.join(workdir, name) for name in ("select.json", "evidence.json")}
        return {
            "params": p, "big": big, "big_obs": big_obs,
            "quad_spec": quad_spec, "quad_obs": quad_obs, "quad_exact": quad_exact,
            "select_argv": ["select", "--degrees", "0..9", *common, "--out", out["select.json"]],
            "evidence_argv": ["evidence", "--degree", "9", *common, "--out", out["evidence.json"]],
            "out": out,
            "inputs_sha256": _inputs_digest(x, y, x2, y2, cli_seed),
            "setup_failures": oracle_failures("glm_log_evidence",
                                              [(quad_spec, quad_obs, quad_exact)]),
        }

    def ops(self, state, instrument):
        p = state["params"]
        big, big_obs = state["big"], state["big_obs"]
        quad_spec, quad_obs = state["quad_spec"], state["quad_obs"]
        quad_exact = state["quad_exact"]

        def check_select(text, record):
            r = _json_result(text)
            for m in r["per_model"]:
                check_identity(m["log_evidence"], m["log_fit"], m["flexibility"], m["label"])
            require(r["chosen_label"] == f"degree-{self.TRUE_DEGREE}",
                    f"select chose {r['chosen_label']}, not degree-{self.TRUE_DEGREE}")
            record.outputs["select"] = r

        def check_evidence(text, record):
            r = _json_result(text)
            check_identity(r["log_evidence"], r["log_fit"], r["flexibility"], "evidence")
            chosen = record.outputs.get("select")
            require(chosen is not None, "select output missing")
            gap = abs(r["log_evidence"] - chosen["per_model"][9]["log_evidence"])
            require(gap <= IDENTITY_TOL, f"evidence and select disagree at degree 9 by {gap:.3e}")

        def check_exact(dec, record):
            check_decomposition(dec, "glm-exact")
            first = record.outputs.setdefault("glm_log_evidence", dec.log_evidence)
            require(dec.log_evidence == first, "repeated glm_log_evidence calls disagree")

        def quadrature():
            model = instrument(ek.wrap_glm(quad_spec, quad_obs))
            return ek.evidence_quadrature(model, ek.glm_normalized_prior(quad_spec),
                                          p["quad_grid"])

        def check_quadrature(dec, record):
            check_decomposition(dec, "quadrature")
            record.record_error(record.quad_errs, dec, quad_exact.log_evidence, bounded=True)

        return [
            cli_op("cli.select", state["select_argv"], state["out"]["select.json"], check_select),
            cli_op("cli.evidence", state["evidence_argv"], state["out"]["evidence.json"],
                   check_evidence),
            *[Op("glm_log_evidence", lambda: ek.glm_log_evidence(big, big_obs), check_exact)
              for _ in range(p["reps"])],
            Op("evidence_quadrature-d2", quadrature, check_quadrature),
        ]


WORKLOADS = {w.name: w for w in (McExperiments(), BlackboxEstimators(), LargeN())}
