"""Command-line surface.

One executable with subcommands that map onto the library: ``fit``,
``evidence``, ``decompose``, ``select``, ``risk``, ``poly-demo``,
``mackay-demo`` and ``bic-sweep``.  Every run writes a single JSON or CSV
output that embeds the resolved configuration and the original argv, so any
output file can be reproduced by replaying the argv it contains.

Exit codes: 0 success, 1 domain or numeric error, 2 usage error.  No
environment variables are consulted; all state comes from argv and files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .dataio import read_observations, render_json, write_csv, write_json
from .evidence import (
    bic_penalty,
    bic_sweep,
    decompose,
    evidence_importance,
    evidence_laplace,
    evidence_quadrature,
    polynomial_sweep_family,
)
from .exceptions import EvidkitError, UsageError
from .generic import glm_normalized_prior, map_optimize_multistart, wrap_glm
from .glm import (
    GaussianLinearSpec,
    ObservationSet,
    glm_log_evidence,
    glm_log_likelihood,
    map_estimate,
)
from .records import ESTIMATORS
from .selection import (
    RULES,
    _check_degrees,
    _check_weights,
    mackay_crossover,
    polynomial_family,
    risk_mc,
    select,
    sweet_spot_experiment,
)

COMMANDS = ("fit", "evidence", "decompose", "select", "risk",
            "poly-demo", "mackay-demo", "bic-sweep")
QUADRATURE_GRID_DEFAULT = {1: 2001, 2: 401, 3: 101}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command, argv, paths, and parameters."""

    command: str
    argv: tuple[str, ...]
    data_path: str | None
    output_path: str
    format: str
    params: dict = field(default_factory=dict)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_int_list(text: str, name: str) -> tuple[int, ...]:
    """Expand '0..9' ranges and comma lists of integers."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise UsageError(f"empty entry in {name} {text!r}")
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"cannot parse range {part!r} in {name}") from None
            if hi < lo:
                raise UsageError(f"descending range {part!r} in {name}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise UsageError(f"cannot parse integer {part!r} in {name}") from None
    return tuple(values)


def _parse_float_list(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse number list {text!r} for {name}") from None


def _require_positive(value: float, name: str) -> float:
    if not (np.isfinite(value) and value > 0):
        raise UsageError(f"{name} must be positive")
    return float(value)


def _library_check(check, *args):
    """Run a library validator, reporting its ``ValueError`` as a usage error."""
    try:
        check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="evidkit",
        description="Model selection by evidence: exact Gaussian-linear closed forms, "
                    "generic estimators, penalty comparisons, and seeded experiments.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_output(p):
        p.add_argument("--out", dest="output_path", required=True, metavar="PATH",
                       help="output file (written atomically)")
        p.add_argument("--format", choices=["json", "csv"], default="json",
                       help="output format (default json)")

    def add_model(p):
        p.add_argument("--sigma", type=float, required=True, help="noise scale, > 0")
        p.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="regularizer scale, > 0")

    p = sub.add_parser("fit", help="MAP fit of a polynomial model to a data file")
    p.add_argument("--data", dest="data_path", required=True, metavar="CSV")
    add_model(p)
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree (default: 1 with an x column, else 0)")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("evidence", help="log-evidence decomposition for one model")
    p.add_argument("--data", dest="data_path", required=True, metavar="CSV")
    add_model(p)
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree (default: 1 with an x column, else 0)")
    p.add_argument("--estimator", choices=list(ESTIMATORS), default="glm-exact")
    p.add_argument("--grid", type=int, default=None,
                   help="grid points per dimension for quadrature")
    p.add_argument("--samples", type=int, default=20000,
                   help="importance sampling draws (default 20000)")
    p.add_argument("--inflation", type=float, default=1.5,
                   help="importance proposal covariance inflation (default 1.5)")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("decompose", help="flexibility implied by evidence and fit values")
    p.add_argument("--log-evidence", dest="log_evidence", type=float, required=True)
    p.add_argument("--log-fit", dest="log_fit", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("select", help="choose a polynomial degree by evidence")
    p.add_argument("--data", dest="data_path", required=True, metavar="CSV")
    add_model(p)
    p.add_argument("--degrees", required=True,
                   help="candidate degrees, e.g. '0..9' or '0,1,2'")
    p.add_argument("--weights", default=None,
                   help="prior model weights, comma separated, summing to 1")
    p.add_argument("--rule", choices=list(RULES), default="max-evidence")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("risk", help="Monte Carlo zero-one risk of selection rules")
    add_model(p)
    p.add_argument("--degrees", required=True)
    p.add_argument("--n", type=int, required=True, help="observations per replicate")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--rules", default=",".join(RULES))
    p.add_argument("--weights", default=None)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("poly-demo", help="degree sweet-spot selection experiment")
    add_model(p)
    p.add_argument("--degrees", required=True)
    p.add_argument("--true-degree", dest="true_degree", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("mackay-demo", help="evidence crossover of a stiff vs flexible model")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--lambda-simple", dest="lambda_simple", type=float, required=True)
    p.add_argument("--lambda-complex", dest="lambda_complex", type=float, required=True)
    p.add_argument("--y-min", dest="y_min", type=float, default=-25.0)
    p.add_argument("--y-max", dest="y_max", type=float, default=25.0)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("bic-sweep", help="flexibility vs (d/2) log n over sample sizes")
    p.add_argument("--d", type=int, required=True, help="parameter dimension")
    p.add_argument("--ns", required=True, help="sample sizes, e.g. '100,1000,10000'")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--theta", default=None,
                   help="true coefficients, comma separated (default (-1/2)^k pattern)")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    return parser


def parse_args(argv) -> RunConfig:
    """Validate argv into a fully resolved RunConfig.

    Raises :class:`UsageError` on unknown keys, missing required keys,
    malformed numbers, or out-of-range values.
    """
    argv = [str(a) for a in argv]
    ns = _build_parser().parse_args(argv)
    command = ns.command
    params: dict = {}

    if command in ("fit", "evidence", "select", "risk", "poly-demo"):
        params["sigma"] = _require_positive(ns.sigma, "sigma")
        params["lam"] = _require_positive(ns.lam, "lambda")
    if command in ("fit", "evidence"):
        if ns.degree is not None and ns.degree < 0:
            raise UsageError("degree must be nonnegative")
        params["degree"] = ns.degree
    if command in ("select", "risk", "poly-demo"):
        degrees = _parse_int_list(ns.degrees, "degrees")
        _library_check(_check_degrees, degrees)
        params["degrees"] = degrees
    if command in ("select", "risk"):
        if ns.weights is None:
            params["weights"] = None
        else:
            weights = _parse_float_list(ns.weights, "weights")
            _library_check(_check_weights, weights, len(params["degrees"]))
            params["weights"] = weights

    if command == "evidence":
        params["estimator"] = ns.estimator
        if ns.grid is not None and ns.grid < 5:
            raise UsageError("grid must be >= 5")
        params["grid"] = ns.grid
        if ns.samples < 2:
            raise UsageError("samples must be >= 2")
        params["samples"] = ns.samples
        params["inflation"] = _require_positive(ns.inflation, "inflation")
    if command == "decompose":
        for name in ("log_evidence", "log_fit"):
            if not np.isfinite(getattr(ns, name)):
                raise UsageError(f"{name.replace('_', '-')} must be finite")
        params["log_evidence"] = float(ns.log_evidence)
        params["log_fit"] = float(ns.log_fit)
    if command == "select":
        params["rule"] = ns.rule
    if command == "poly-demo":
        if ns.true_degree not in params["degrees"]:
            raise UsageError("true-degree must be among degrees")
        params["true_degree"] = ns.true_degree
    if command in ("risk", "poly-demo"):
        if ns.n < 1:
            raise UsageError("n must be >= 1")
        params["n"] = ns.n
        if ns.reps < 1:
            raise UsageError("reps must be >= 1")
        params["reps"] = ns.reps
    if command == "risk":
        rules = tuple(part.strip() for part in ns.rules.split(","))
        for rule in rules:
            if rule not in RULES:
                raise UsageError(f"unknown rule {rule!r}")
        params["rules"] = rules
    if command == "mackay-demo":
        params["sigma"] = _require_positive(ns.sigma, "sigma")
        params["lambda_simple"] = _require_positive(ns.lambda_simple, "lambda-simple")
        params["lambda_complex"] = _require_positive(ns.lambda_complex, "lambda-complex")
        if not ns.y_min < ns.y_max:
            raise UsageError("y-min must be below y-max")
        params["y_min"] = float(ns.y_min)
        params["y_max"] = float(ns.y_max)
        if ns.grid < 2:
            raise UsageError("grid must be >= 2")
        params["grid"] = ns.grid
    if command == "bic-sweep":
        if ns.d < 1:
            raise UsageError("d must be >= 1")
        params["d"] = ns.d
        ns_list = _parse_int_list(ns.ns, "ns")
        if any(n < 1 for n in ns_list):
            raise UsageError("ns must be positive")
        if any(b <= a for a, b in zip(ns_list, ns_list[1:])):
            raise UsageError("ns must be strictly increasing")
        params["ns"] = ns_list
        params["sigma"] = _require_positive(ns.sigma, "sigma")
        params["lam"] = _require_positive(ns.lam, "lambda")
        if ns.theta is None:
            params["theta"] = tuple((-0.5) ** k for k in range(ns.d))
        else:
            theta = _parse_float_list(ns.theta, "theta")
            if len(theta) != ns.d:
                raise UsageError(f"theta has {len(theta)} entries but d is {ns.d}")
            params["theta"] = theta

    params["seed"] = int(ns.seed)
    return RunConfig(
        command=command, argv=tuple(argv),
        data_path=getattr(ns, "data_path", None),
        output_path=ns.output_path, format=ns.format, params=params)


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------

def _covariate(obs, degree):
    """The x column, or zeros when the largest degree is 0 and the file has none."""
    if degree > 0 and obs.x is None:
        raise EvidkitError(f"degree {degree} requires an x column in the data file")
    return obs.x if obs.x is not None else np.zeros(obs.n)


def _design_from_data(obs, params):
    degree = params["degree"]
    if degree is None:
        degree = 1 if obs.x is not None else 0
    family = polynomial_family(_covariate(obs, degree), [degree], params["sigma"], params["lam"])
    return family.members[0], degree, list(family.info["column_scales"][0])


def _decomposition_result(dec) -> dict:
    return {
        "log_evidence": dec.log_evidence,
        "log_fit": dec.log_fit,
        "flexibility": dec.flexibility,
        "estimator": dec.estimator,
        "err_estimate": dec.err_estimate,
        "theta_hat": dec.theta_hat.tolist(),
        "warnings": list(dec.warnings),
        "info": {k: v for k, v in dec.info.items()},
    }


def _run_fit(config):
    obs = read_observations(config.data_path)
    spec, degree, scales = _design_from_data(obs, config.params)
    theta_hat = map_estimate(spec, obs)
    log_fit = glm_log_likelihood(spec, obs, theta_hat)
    result = {"degree": degree, "theta_hat": theta_hat.tolist(),
              "log_fit": log_fit, "column_scales": scales, "n": spec.n, "d": spec.d}
    header = ["coefficient", "theta_hat", "column_scale"]
    rows = [[k, theta_hat[k], scales[k]] for k in range(spec.d)]
    return result, header, rows


def _run_evidence(config):
    obs = read_observations(config.data_path)
    params = config.params
    spec, degree, scales = _design_from_data(obs, params)
    estimator = params["estimator"]
    if estimator == "glm-exact":
        dec = glm_log_evidence(spec, obs)
        search = None
    else:
        model = wrap_glm(spec, obs)
        prior = glm_normalized_prior(spec)
        # Generic estimators only find a local MAP; restart from 8 seeded
        # Latin-hypercube points and hand the estimators the best basin.
        search = map_optimize_multistart(model, params["seed"],
                                         box=model.effective_box)
        if estimator == "quadrature":
            if spec.d > 3:
                raise EvidkitError(f"quadrature supports dimension <= 3, got d={spec.d}")
            grid = params["grid"] or QUADRATURE_GRID_DEFAULT[spec.d]
            dec = evidence_quadrature(model, prior, grid, start=search.theta)
        elif estimator == "laplace":
            dec = evidence_laplace(model, prior, start=search.theta)
        else:
            dec = evidence_importance(model, prior, params["samples"], params["seed"],
                                      inflation=params["inflation"], start=search.theta)
    result = _decomposition_result(dec)
    if search is not None:
        result["map_search"] = {
            "starts": len(search.basins),
            "basin_values": [value for _, _, value in search.basins],
        }
    result["degree"] = degree
    result["column_scales"] = scales
    header = ["log_evidence", "log_fit", "flexibility", "estimator", "err_estimate"]
    rows = [[dec.log_evidence, dec.log_fit, dec.flexibility, dec.estimator,
             dec.err_estimate]]
    return result, header, rows


def _run_decompose(config):
    fragment = decompose(config.params["log_evidence"], config.params["log_fit"])
    result = {"log_evidence": fragment.log_evidence, "log_fit": fragment.log_fit,
              "flexibility": fragment.flexibility, "note": fragment.note}
    header = ["log_evidence", "log_fit", "flexibility", "note"]
    rows = [[fragment.log_evidence, fragment.log_fit, fragment.flexibility, fragment.note]]
    return result, header, rows


def _family_from_config(x, params):
    family = polynomial_family(x, params["degrees"], params["sigma"], params["lam"])
    if params.get("weights") is not None:
        family = replace(family, weights=params["weights"])
    return family


def _run_select(config):
    obs = read_observations(config.data_path)
    family = _family_from_config(_covariate(obs, max(config.params["degrees"])), config.params)
    outcome = select(family, obs, config.params["rule"])
    per_model = []
    for i, dec in enumerate(outcome.decompositions):
        per_model.append({
            "index": i, "label": family.labels[i], "weight": float(family.weights[i]),
            "log_evidence": dec.log_evidence, "log_fit": dec.log_fit,
            "flexibility": dec.flexibility, "log_score": float(outcome.log_scores[i]),
            "chosen": i == outcome.chosen, "warnings": list(dec.warnings)})
    result = {"chosen": outcome.chosen, "chosen_label": family.labels[outcome.chosen],
              "rule": outcome.rule, "tie_broken": outcome.tie_broken,
              "per_model": per_model}
    header = ["index", "label", "weight", "log_evidence", "log_fit", "flexibility",
              "log_score", "chosen"]
    rows = [[m["index"], m["label"], m["weight"], m["log_evidence"], m["log_fit"],
             m["flexibility"], m["log_score"], m["chosen"]] for m in per_model]
    return result, header, rows


def _run_risk(config):
    params = config.params
    x = np.random.default_rng(params["seed"]).standard_normal(params["n"])
    family = _family_from_config(x, params)
    report = risk_mc(family, None, params["reps"], params["rules"], params["seed"])
    result = {
        "rule_names": list(report.rule_names),
        "risks": report.risks.tolist(),
        "reps": report.reps, "seed": report.seed,
        "labels": list(family.labels),
        "true_counts": report.true_counts.tolist(),
        "per_true_model": report.per_true_model.tolist(),
    }
    header = ["rule", "true_model", "risk", "count"]
    rows = []
    for r, rule in enumerate(report.rule_names):
        rows.append([rule, "", report.risks[r], report.reps])
        for j, label in enumerate(family.labels):
            rows.append([rule, label, report.per_true_model[j, r],
                         int(report.true_counts[j])])
    return result, header, rows


def _run_poly_demo(config):
    params = config.params
    report = sweet_spot_experiment(
        params["true_degree"], params["degrees"], params["n"], params["sigma"],
        params["lam"], params["reps"], params["seed"])
    result = {
        "degrees": list(report.degrees), "true_degree": report.true_degree,
        "n": report.n, "reps": report.reps, "seed": report.seed,
        "counts": report.counts.tolist(),
        "selection_frequency": report.selection_frequency.tolist(),
        "modal_degree": report.modal_degree,
        "mean_regret": report.mean_regret,
        "mean_best_rmse": report.mean_best_rmse,
        "regret_ratio": report.regret_ratio,
    }
    header = ["metric", "degree", "value"]
    rows = [["count", p, int(c)] for p, c in zip(report.degrees, report.counts)]
    rows += [["frequency", p, f] for p, f in
             zip(report.degrees, report.selection_frequency)]
    rows += [["modal_degree", None, report.modal_degree],
             ["mean_regret", None, report.mean_regret],
             ["mean_best_rmse", None, report.mean_best_rmse],
             ["regret_ratio", None, report.regret_ratio]]
    return result, header, rows


def _run_mackay_demo(config):
    params = config.params
    simple = GaussianLinearSpec(G=[[1.0]], sigma=params["sigma"], lam=params["lambda_simple"])
    flexible = GaussianLinearSpec(G=[[1.0]], sigma=params["sigma"],
                                  lam=params["lambda_complex"])
    grid = np.linspace(params["y_min"], params["y_max"], params["grid"])
    report = mackay_crossover(simple, flexible, grid)
    result = {
        "y_grid": report.y_grid.tolist(),
        "log_evidence_simple": report.log_evidence_simple.tolist(),
        "log_evidence_complex": report.log_evidence_complex.tolist(),
        "crossovers": list(report.crossovers),
        "marginal_variance_simple": report.marginal_variance_simple,
        "marginal_variance_complex": report.marginal_variance_complex,
    }
    header = ["kind", "y", "log_evidence_simple", "log_evidence_complex", "difference"]
    rows = [["grid", y, s, c, s - c] for y, s, c in
            zip(report.y_grid, report.log_evidence_simple, report.log_evidence_complex)]
    for y_star in report.crossovers:
        obs = ObservationSet(y=[y_star])
        s = glm_log_evidence(simple, obs).log_evidence
        c = glm_log_evidence(flexible, obs).log_evidence
        rows.append(["crossover", y_star, s, c, s - c])
    return result, header, rows


def _run_bic_sweep(config):
    params = config.params
    family = polynomial_sweep_family(params["theta"], params["sigma"], params["lam"])
    sweep = bic_sweep(family, params["ns"], params["seed"])
    bic_values = [bic_penalty(sweep.d, n) for n in sweep.ns]
    result = {
        "d": sweep.d, "ns": list(sweep.ns),
        "flexibilities": sweep.flexibilities.tolist(),
        "bic_penalties": bic_values,
        "gaps": sweep.gaps.tolist(),
        "H_hat": sweep.H_hat.tolist(),
        "m_hat": sweep.m_hat.tolist(),
        "predicted_constant": sweep.predicted_constant,
        "final_gap_minus_constant": float(sweep.gaps[-1] - sweep.predicted_constant),
    }
    header = ["n", "flexibility", "bic_penalty", "gap", "predicted_constant"]
    rows = [[n, f, b, g, sweep.predicted_constant] for n, f, b, g in
            zip(sweep.ns, sweep.flexibilities, bic_values, sweep.gaps)]
    return result, header, rows


_RUNNERS = {
    "fit": _run_fit,
    "evidence": _run_evidence,
    "decompose": _run_decompose,
    "select": _run_select,
    "risk": _run_risk,
    "poly-demo": _run_poly_demo,
    "mackay-demo": _run_mackay_demo,
    "bic-sweep": _run_bic_sweep,
}


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit status.

    The output embeds the resolved config (including argv), so rerunning
    the embedded argv reproduces the file byte for byte.
    """
    try:
        result, header, rows = _RUNNERS[config.command](config)
        config_dict = asdict(config)
        config_dict["argv"] = list(config.argv)
        config_dict["params"] = {k: (list(v) if isinstance(v, tuple) else v)
                                 for k, v in config.params.items()}
        if config.format == "json":
            payload = {
                "config": config_dict,
                "result": result,
                "diagnostics": {"package": "evidkit", "version": __version__},
            }
            write_json(config.output_path, payload)
        else:
            comments = [
                "argv: " + render_json(list(config.argv), indent=None),
                "config: " + render_json(config_dict, indent=None),
            ]
            write_csv(config.output_path, header, rows, comments)
        return 0
    except EvidkitError as exc:
        print(f"evidkit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"evidkit: i/o error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"evidkit: usage error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
