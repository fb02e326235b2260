"""Command-line front end.

Every subcommand prints one JSON document to stdout (schema_version 1,
numbers at 17 significant digits) so outputs can be parsed and compared
byte for byte. On failure stdout carries a single machine token (one of the
E_* codes from learcov.errors), the human-readable message goes to stderr,
and the process exits with the error's dedicated code.

Values come from, in decreasing precedence: command-line flags, the
--config key=value file, built-in defaults. Config keys mirror flag names
("grid-points" or "grid_points" both work); keys the invoked subcommand
does not use are ignored so one file can serve several subcommands.
"""
from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import asdict

import click
import numpy as np

from . import __version__
from ._jsonio import dumps
from .core import (
    Arma11Params,
    LearParams,
    arma11_covariance,
    build_grid,
    lear_covariance,
)
from .dataio import load_sim_spec, read_long_csv, write_long_csv
from .errors import InvalidParams, LearcovError, ParseError
from .estimation import FitOptions, compare_parameterizations, fit
from .reparam import (
    _canonical_range,
    check_special_case,
    map_arma11_to_lear,
    map_lear_to_arma11,
    normalize_grid,
)
from .sim import DESIGN_RULES
from .sim import simulate as run_simulation

SCHEMA_VERSION = 1


def _fail(exc: LearcovError) -> None:
    click.echo(type(exc).token)
    click.echo(f"{type(exc).__name__}: {exc}", err=True)
    sys.exit(type(exc).exit_code)


def _guarded(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except LearcovError as exc:
            _fail(exc)
        except OSError as exc:
            _fail(ParseError(str(exc)))
    return wrapper


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ParseError(
                    f"config line {lineno}: expected key=value, got {text!r}"
                )
            key, _, value = text.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _apply_config(ctx: click.Context) -> None:
    """Fill parameters the user left at their defaults from the config file."""
    path = ctx.params.get("config")
    if not path:
        return
    try:
        entries = _read_config_file(path)
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from None
    source = click.core.ParameterSource.DEFAULT
    for param in ctx.command.params:
        if param.name == "config":
            continue
        # Accept both the flag spelling (--grid-points) and the parameter
        # name (input_path for --input).
        keys = {param.name}
        for opt in param.opts:
            if opt.startswith("--"):
                keys.add(opt[2:].replace("-", "_"))
        hit = next((k for k in keys if k in entries), None)
        if hit is not None and ctx.get_parameter_source(param.name) is source:
            ctx.params[param.name] = param.type.convert(entries[hit], param, ctx)


def _emit(payload: dict) -> None:
    click.echo(dumps(payload, indent=2))


def _require_flag(params: dict, name: str, flag: str):
    """Presence check deferred past config application.

    Flags that must be given are declared optional to click so a config file
    can supply them; absence is only an error once both sources are merged.
    """
    if params.get(name) is None:
        raise InvalidParams(f"missing required option {flag}")
    return params[name]


def _parse_times(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"cannot parse times {text!r}; expected e.g. 1,2,3") from None
    if not values:
        raise ParseError("times list is empty")
    return np.array(values)


def _design_from_flag(text: str):
    if text in DESIGN_RULES:
        return text
    return [c.strip() for c in text.split(",")]


def _config_option(func):
    return click.option(
        "--config", type=click.Path(), default=None,
        help="key=value file supplying defaults for unset flags.",
    )(func)


def _input_options(func):
    for deco in reversed([
        click.option("--input", "input_path", type=click.Path(), default=None,
                     help="Long-format CSV file."),
        click.option("--subject-col", default="subject", show_default=True),
        click.option("--time-col", default="time", show_default=True),
        click.option("--y-col", default="y", show_default=True),
        click.option("--design", default="intercept", show_default=True,
                     help="intercept, intercept-time, or comma-separated "
                          "covariate column names."),
    ]):
        func = deco(func)
    return func


def _fit_options(func):
    for deco in reversed([
        click.option("--criterion", type=click.Choice(["ml", "reml"]),
                     default="ml", show_default=True),
        click.option("--grid-points", type=int, default=21, show_default=True),
        click.option("--rho-cap", type=float, default=0.99, show_default=True),
        click.option("--delta-cap-factor", type=float, default=5.0,
                     show_default=True),
        click.option("--max-iterations", type=int, default=400, show_default=True),
        click.option("--tolerance", type=float, default=1e-10, show_default=True),
        click.option("--allow-negative", is_flag=True, default=False,
                     help="Widen the ARMA(1,1) box to negative parameters."),
        click.option("--boundary-tol", type=float, default=1e-6, show_default=True),
    ]):
        func = deco(func)
    return func


def _options_from_params(params: dict) -> FitOptions:
    return FitOptions(
        grid_points=params["grid_points"],
        rho_cap=params["rho_cap"],
        delta_cap_factor=params["delta_cap_factor"],
        max_iterations=params["max_iterations"],
        tolerance=params["tolerance"],
        allow_negative=params["allow_negative"],
        boundary_tol=params["boundary_tol"],
    )


def _load_data(params: dict):
    return read_long_csv(
        _require_flag(params, "input_path", "--input"),
        subject_col=params["subject_col"],
        time_col=params["time_col"],
        y_col=params["y_col"],
        design=_design_from_flag(params["design"]),
    )


@click.group()
@click.version_option(version=__version__, prog_name="learcov")
def main() -> None:
    """Linear exponent autoregressive covariance models for repeated measures."""


@main.command("build-matrix")
@click.option("--sigma2", type=float, default=1.0, show_default=True)
@click.option("--rho-l", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--times", default=None, help="Comma-separated measurement times.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
@_config_option
@click.pass_context
@_guarded
def build_matrix(ctx, sigma2, rho_l, delta, times, fmt, config) -> None:
    """Print the covariance matrix for one subject's measurement times."""
    _apply_config(ctx)
    p = ctx.params
    t = _parse_times(_require_flag(p, "times", "--times"))
    grid = build_grid([t])
    params = LearParams(
        p["sigma2"],
        _require_flag(p, "rho_l", "--rho-l"),
        _require_flag(p, "delta", "--delta"),
    )
    cov = lear_covariance(params, grid, 0)
    if p["fmt"] == "text":
        for row in cov:
            click.echo(" ".join(format(v, ".17g") for v in row))
        return
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "build-matrix",
        "times": [float(v) for v in t],
        **asdict(params),
        "covariance": cov.tolist(),
    })


@main.command("reparam")
@click.option("--direction", type=click.Choice(["lear2arma", "arma2lear"]),
              default=None)
@click.option("--sigma2", type=float, default=1.0, show_default=True)
@click.option("--rho-l", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--tau", type=float, default=None)
@click.option("--rho-a", type=float, default=None)
@click.option("--range", "d_range", type=float, default=None,
              help="Distance range d_max - d_min in spacing units.")
@click.option("--times", default=None,
              help="Comma-separated times; the range is derived after "
                   "normalizing this grid.")
@click.option("--verify", is_flag=True, default=False,
              help="Also report the max elementwise difference between the "
                   "two implied covariance matrices.")
@_config_option
@click.pass_context
@_guarded
def reparam_cmd(ctx, direction, sigma2, rho_l, delta, tau, rho_a, d_range,
                times, verify, config) -> None:
    """Map parameters between the distance and position forms."""
    _apply_config(ctx)
    p = ctx.params
    direction = _require_flag(p, "direction", "--direction")
    if (p["d_range"] is None) == (p["times"] is None):
        raise InvalidParams("give exactly one of --range or --times")

    grid = None
    if p["times"] is not None:
        grid = build_grid([_parse_times(p["times"])])
        rng = _canonical_range(grid)
    else:
        rng = p["d_range"]

    if direction == "lear2arma":
        if p["rho_l"] is None or p["delta"] is None:
            raise InvalidParams("lear2arma needs --rho-l and --delta")
        source = LearParams(p["sigma2"], p["rho_l"], p["delta"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tau_out, rho_a_out = map_lear_to_arma11(source.rho_l, source.delta, rng)
        target = Arma11Params(source.sigma2, tau_out, rho_a_out)
    else:
        if p["tau"] is None or p["rho_a"] is None:
            raise InvalidParams("arma2lear needs --tau and --rho-a")
        source = Arma11Params(p["sigma2"], p["tau"], p["rho_a"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rho_l_out, delta_out = map_arma11_to_lear(source.tau, source.rho_a, rng)
        target = LearParams(source.sigma2, rho_l_out, delta_out)

    notes = [str(w.message) for w in caught]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reparam",
        "direction": direction,
        "range": rng,
        "input": asdict(source),
        "output": asdict(target),
        "warnings": notes,
    }

    if p["verify"]:
        if grid is None:
            if rng <= 0 or rng != int(rng):
                raise InvalidParams(
                    "--verify without --times needs a positive integer --range "
                    "to build a unit-spaced grid"
                )
            grid = build_grid([np.arange(1.0, rng + 3.0)])
        vgrid = normalize_grid(grid)
        p_ref = vgrid.subject_times[0].size
        if direction == "lear2arma":
            lear_params, arma_params = source, target
        else:
            lear_params, arma_params = target, source
        diff = float(np.max(np.abs(
            lear_covariance(lear_params, vgrid, 0)
            - arma11_covariance(arma_params, p_ref)
        )))
        payload["max_matrix_difference"] = diff
    for note in notes:
        click.echo(f"warning: {note}", err=True)
    _emit(payload)


@main.command("check-special-case")
@_input_options
@_config_option
@click.pass_context
@_guarded
def check_special_case_cmd(ctx, **kwargs) -> None:
    """Report whether a dataset's grid reduces to unit-spaced integers."""
    _apply_config(ctx)
    data = _load_data(ctx.params)
    report = check_special_case(data.grid)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "check-special-case",
        "eligible": report.eligible,
        "equally_spaced": report.equally_spaced,
        "integer_distances": report.integer_distances,
        "dmin_is_one": report.dmin_is_one,
        "spacing": report.spacing,
    })


@main.command("simulate")
@click.option("--spec", "spec_path", type=click.Path(), default=None,
              help="JSON simulation spec (see load_sim_spec).")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output CSV path.")
@_config_option
@click.pass_context
@_guarded
def simulate_cmd(ctx, spec_path, out_path, config) -> None:
    """Draw a dataset from a JSON spec and write it as long-format CSV."""
    _apply_config(ctx)
    spec = load_sim_spec(_require_flag(ctx.params, "spec_path", "--spec"))
    data = run_simulation(spec)
    write_long_csv(_require_flag(ctx.params, "out_path", "--out"), data)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "n_subjects": data.n_subjects,
        "n_obs": data.n_obs,
        "seed": spec.seed,
        "out": str(ctx.params["out_path"]),
    })


@main.command("fit")
@_input_options
@click.option("--param", "parameterization",
              type=click.Choice(["lear", "arma11"]), default="lear",
              show_default=True)
@_fit_options
@_config_option
@click.pass_context
@_guarded
def fit_cmd(ctx, **kwargs) -> None:
    """Fit one covariance parameterization by profile ML or REML."""
    _apply_config(ctx)
    p = ctx.params
    data = _load_data(p)
    result = fit(
        data,
        parameterization=p["parameterization"],
        criterion=p["criterion"],
        options=_options_from_params(p),
    )
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        **result.to_dict(),
    })


@main.command("compare")
@_input_options
@_fit_options
@_config_option
@click.pass_context
@_guarded
def compare_cmd(ctx, **kwargs) -> None:
    """Fit both parameterizations and report how well they agree."""
    _apply_config(ctx)
    p = ctx.params
    data = _load_data(p)
    report = compare_parameterizations(
        data, criterion=p["criterion"], options=_options_from_params(p)
    )
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        **report.to_dict(),
    })


if __name__ == "__main__":
    main()
