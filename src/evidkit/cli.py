"""Command-line surface.

One executable with subcommands that map onto the library: ``fit``,
``evidence``, ``decompose``, ``select``, ``risk``, ``poly-demo``,
``mackay-demo`` and ``bic-sweep``.  Every run writes a single JSON or CSV
output that embeds the resolved configuration and the original argv, so any
output file can be reproduced by replaying the argv it contains.

Arguments are checked at parse time by the library's own validators.
Exit codes: 0 success, 1 domain or numeric error (a library ``ValueError``
raised at run time included), 2 usage error.  No environment variables are
consulted; all state comes from argv and files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import __version__
from .dataio import read_observations, render_json, write_csv, write_json
from .evidence import (
    DEFAULT_INFLATION,
    _check_finite,
    _check_sample_sizes,
    bic_penalty,
    bic_sweep,
    decompose,
    evidence_importance,
    evidence_laplace,
    evidence_quadrature,
    polynomial_sweep_family,
)
from .exceptions import EvidkitError, UsageError
from .generic import (
    _check_grid,
    glm_normalized_prior,
    map_optimize_multistart,
    wrap_glm,
)
from .glm import (
    GaussianLinearSpec,
    ObservationSet,
    _check_count,
    _check_scale,
    glm_log_evidence,
    glm_log_likelihood,
    map_estimate,
)
from .records import ESTIMATORS
from .selection import (
    RULES,
    _check_degrees,
    _check_rules,
    _check_true_degree,
    _check_weights,
    _check_y_grid,
    mackay_crossover,
    polynomial_family,
    risk_mc,
    select,
    sweet_spot_experiment,
)

# Namespace keys that route the run rather than parameterize it.
_ROUTING_KEYS = ("command", "data_path", "output_path", "format")


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


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Expand '0..9' ranges and comma lists of integers."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"cannot parse range {part!r}") from None
            if hi < lo:
                raise argparse.ArgumentTypeError(f"descending range {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise argparse.ArgumentTypeError(f"cannot parse integer {part!r}") from None
    return tuple(values)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse number list {text!r}") from None


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(","))


def _checked(parse, check, *args):
    """An argparse ``type``: the parsed text, once the library's ``check(value, *args)`` passes.

    The check's ``ValueError`` becomes an argparse error, which names the
    argument; text that ``parse`` rejects keeps argparse's "invalid <type>
    value" message.
    """
    def convert(text):
        value = parse(text)
        try:
            check(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = parse.__name__
    return convert


def _library_check(check, *args):
    """Run a library validator; its ``ValueError`` becomes a usage error."""
    try:
        check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


_SIGMA = _checked(float, _check_scale, "sigma")
_LAMBDA = _checked(float, _check_scale, "lambda")

# Every argument's argparse keywords, declared once per meaning and keyed by
# its flag, with a note after the flag where one flag has two meanings.  A
# command in ``_COMMANDS`` names the keys it takes, in the order that fixes
# its params, the config it writes and argparse's "required" messages.
_ARGUMENTS = {
    "--data": dict(dest="data_path", required=True, metavar="CSV"),
    "--sigma": dict(type=_SIGMA, required=True, help="noise scale, > 0"),
    "--sigma (default 1)": dict(type=_SIGMA, default=1.0),
    "--lambda": dict(dest="lam", type=_LAMBDA, required=True, help="regularizer scale, > 0"),
    "--lambda (default 1)": dict(dest="lam", type=_LAMBDA, default=1.0),
    "--degree": dict(type=_checked(int, lambda value: _check_degrees([value])),
                     help="polynomial degree (default: 1 with an x column, else 0)"),
    "--degrees": dict(type=_checked(_parse_int_list, _check_degrees), required=True,
                      help="candidate degrees, e.g. '0..9' or '0,1,2'"),
    "--weights": dict(type=_parse_float_list,
                      help="prior model weights, comma separated, summing to 1"),
    "--estimator": dict(choices=list(ESTIMATORS), default="glm-exact"),
    "--grid": dict(type=_checked(int, _check_grid, 1),
                   help="grid points per dimension, odd, for quadrature or the laplace reference"),
    "--samples": dict(type=_checked(int, _check_count, "samples", 2), default=20000,
                      help="importance sampling draws (default %(default)s)"),
    "--inflation": dict(type=_checked(float, _check_scale, "inflation"), default=DEFAULT_INFLATION,
                        help="importance proposal covariance inflation (default %(default)s)"),
    "--log-evidence": dict(type=_checked(float, _check_finite, "log_evidence"), required=True),
    "--log-fit": dict(type=_checked(float, _check_finite, "log_fit"), required=True),
    "--rule": dict(choices=list(RULES), default="max-evidence"),
    "--rules": dict(type=_checked(_parse_names, _check_rules), default=",".join(RULES)),
    "--n": dict(type=_checked(int, _check_count, "n"), required=True,
                help="observations per replicate"),
    "--reps": dict(type=_checked(int, _check_count, "reps"), default=100),
    "--true-degree": dict(type=int, required=True),
    "--lambda-simple": dict(type=_checked(float, _check_scale, "lambda-simple"), required=True),
    "--lambda-complex": dict(type=_checked(float, _check_scale, "lambda-complex"), required=True),
    "--y-min": dict(type=float, default=-25.0),
    "--y-max": dict(type=float, default=25.0),
    "--grid (y points)": dict(type=_checked(int, _check_count, "grid"), default=1001),
    "--d": dict(type=_checked(int, _check_count, "d"), required=True, help="parameter dimension"),
    "--ns": dict(type=_checked(_parse_int_list, _check_sample_sizes), required=True,
                 help="sample sizes, e.g. '100,1000,10000'"),
    "--theta": dict(type=_parse_float_list,
                    help="true coefficients, comma separated (default (-1/2)^k pattern)"),
    # Every command takes these three last.
    "--seed": dict(type=_checked(int, _check_count, "seed", 0), default=0),
    "--out": dict(dest="output_path", required=True, metavar="PATH",
                  help="output file (written atomically)"),
    "--format": dict(choices=["json", "csv"], default="json",
                     help="output format (default %(default)s)"),
}


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser of ``_COMMANDS`` and ``_ARGUMENTS``, built once per process."""
    parser = _Parser(
        prog="evidkit",
        description="Model selection by evidence: exact Gaussian-linear closed forms, "
                    "generic estimators, penalty comparisons, and seeded experiments.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (help_text, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*names, "--seed", "--out", "--format"):
            p.add_argument(name.split()[0], **_ARGUMENTS[name])
    return parser


def parse_args(argv) -> RunConfig:
    """Validate argv into a fully resolved RunConfig.

    Each argument's ``type`` runs the library's validator for it; this adds
    only the rules that relate two arguments.  Raises :class:`UsageError` on
    unknown keys, missing required keys, malformed numbers, or out-of-range
    values.
    """
    argv = [str(a) for a in argv]
    params = vars(_build_parser().parse_args(argv))
    routing = {key: params.pop(key, None) for key in _ROUTING_KEYS}
    if params.get("estimator") in ("glm-exact", "importance-sampling") \
            and params["grid"] is not None:
        raise UsageError(f"--grid does not apply to the {params['estimator']} estimator")
    if params.get("weights") is not None:
        _library_check(_check_weights, params["weights"], len(params["degrees"]))
    if "true_degree" in params:
        _library_check(_check_true_degree, params["true_degree"], params["degrees"])
    if "y_min" in params:
        _library_check(_check_y_grid, _y_grid(params))
    if "theta" in params:
        if params["theta"] is None:
            params["theta"] = tuple((-0.5) ** k for k in range(params["d"]))
        elif len(params["theta"]) != params["d"]:
            raise UsageError(f"theta has {len(params['theta'])} entries but d is {params['d']}")
    return RunConfig(argv=tuple(argv), params=params, **routing)


def _y_grid(params):
    """The ``mackay-demo`` response grid."""
    # Bounds that are not finite, or a span that overflows, give non-finite
    # points for ``_check_y_grid`` to reject, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(params["y_min"], params["y_max"], params["grid"])


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
        grid = params["grid"]
        if estimator == "quadrature" or grid is not None:  # refuse before the search
            grid = _check_grid(grid, spec.d)
        model = wrap_glm(spec, obs)
        prior = glm_normalized_prior(spec)
        # Generic estimators only find a local MAP; restart from 8 seeded
        # Latin-hypercube points and hand the estimators the best basin.
        search = map_optimize_multistart(model, params["seed"],
                                         box=model.effective_box)
        if estimator == "quadrature":
            dec = evidence_quadrature(model, prior, grid, start=search.theta)
        elif estimator == "laplace":
            dec = evidence_laplace(model, prior, start=search.theta, err_check_grid=grid)
        else:
            dec = evidence_importance(model, prior, params["samples"], params["seed"],
                                      inflation=params["inflation"], start=search.theta)
    result = asdict(dec)
    if search is not None:
        result["map_search"] = {
            "starts": len(search.basins),
            "basin_values": [value for _, _, value in search.basins],
        }
    result["degree"] = degree
    result["column_scales"] = scales
    header = ["log_evidence", "log_fit", "flexibility", "estimator", "err_estimate"]
    return result, header, [[result[key] for key in header]]


def _run_decompose(config):
    fragment = decompose(config.params["log_evidence"], config.params["log_fit"])
    result = asdict(fragment)
    header = ["log_evidence", "log_fit", "flexibility", "note"]
    return result, header, [[result[key] for key in header]]


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
    return result, header, [[model[key] for key in header] for model in per_model]


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
    report = mackay_crossover(simple, flexible, _y_grid(params))
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


# Each command's help, its runner and the ``_ARGUMENTS`` it takes, in order.
_COMMANDS = {
    "fit": ("MAP fit of a polynomial model to a data file", _run_fit,
            ("--data", "--sigma", "--lambda", "--degree")),
    "evidence": ("log-evidence decomposition for one model", _run_evidence,
                 ("--data", "--sigma", "--lambda", "--degree", "--estimator", "--grid",
                  "--samples", "--inflation")),
    "decompose": ("flexibility implied by evidence and fit values", _run_decompose,
                  ("--log-evidence", "--log-fit")),
    "select": ("choose a polynomial degree by evidence", _run_select,
               ("--data", "--sigma", "--lambda", "--degrees", "--weights", "--rule")),
    "risk": ("Monte Carlo zero-one risk of selection rules", _run_risk,
             ("--sigma", "--lambda", "--degrees", "--weights", "--n", "--reps", "--rules")),
    "poly-demo": ("degree sweet-spot selection experiment", _run_poly_demo,
                  ("--sigma", "--lambda", "--degrees", "--true-degree", "--n", "--reps")),
    "mackay-demo": ("evidence crossover of a stiff vs flexible model", _run_mackay_demo,
                    ("--sigma (default 1)", "--lambda-simple", "--lambda-complex", "--y-min",
                     "--y-max", "--grid (y points)")),
    "bic-sweep": ("flexibility vs (d/2) log n over sample sizes", _run_bic_sweep,
                  ("--d", "--ns", "--sigma (default 1)", "--lambda (default 1)", "--theta")),
}


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit status.

    The output embeds the resolved config (including argv), so rerunning
    the embedded argv reproduces the file byte for byte.
    """
    try:
        result, header, rows = _COMMANDS[config.command][1](config)
        config_dict = asdict(config)
        if config.format == "json":
            payload = {
                "config": config_dict,
                "result": result,
                "diagnostics": {"package": "evidkit", "version": __version__},
            }
            write_json(config.output_path, payload)
        else:
            comments = [
                "argv: " + render_json(config.argv, indent=None),
                "config: " + render_json(config_dict, indent=None),
            ]
            write_csv(config.output_path, header, rows, comments)
        return 0
    except (EvidkitError, ValueError) as exc:
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
