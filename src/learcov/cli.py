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

Each subcommand imports the numerics it runs in its own body, so simulate
never loads the estimation code and check-special-case neither it nor the
simulator.

run, the entry point of the learcov program, ends the process as soon as
the output is flushed; main, the click group, exits as click programs do.
"""
from __future__ import annotations

import atexit
import contextlib
import functools
import os
import sys
import warnings
from dataclasses import asdict, fields

import click
import numpy as np

from . import __version__
from ._jsonio import dumps
from .core import Arma11Params, LearParams, build_grid, lear_covariance
from .errors import InvalidParams, LearcovError, ParseError
from .model import CRITERIA, DESIGN_RULES, PARAMETERIZATIONS, FitOptions

SCHEMA_VERSION = 1


def _apply_config(ctx: click.Context) -> None:
    """Fill parameters the user left at their defaults from the config file."""
    path = ctx.params.get("config")
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ParseError(f"config line {lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    source = click.core.ParameterSource.DEFAULT
    for param in ctx.command.params:
        if param.name == "config":
            continue
        # Accept both the flag spelling (--grid-points) and the parameter
        # name (input_path for --input).
        keys = {param.name, *(opt[2:].replace("-", "_")
                              for opt in param.opts if opt.startswith("--"))}
        hit = next((k for k in keys if k in entries), None)
        if hit is not None and ctx.get_parameter_source(param.name) is source:
            ctx.params[param.name] = param.type.convert(entries[hit], param, ctx)


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
    return text if text in DESIGN_RULES else [c.strip() for c in text.split(",")]


_INPUT_OPTIONS = (
    click.option("--input", "input_path", type=click.Path(), default=None,
                 help="Long-format CSV file."),
    click.option("--subject-col", default="subject", show_default=True),
    click.option("--time-col", default="time", show_default=True),
    click.option("--y-col", default="y", show_default=True),
    click.option("--design", default="intercept", show_default=True,
                 help="intercept, intercept-time, or comma-separated "
                      "covariate column names."),
)

# --criterion, then one flag per FitOptions field, of the field's type and
# with its default.
_FLAG_HELP = {"allow_negative": "Widen the ARMA(1,1) box to negative parameters."}
_FIT_OPTIONS = (
    click.option("--criterion", type=click.Choice(CRITERIA), default="ml",
                 show_default=True),
    *(
        click.option("--" + f.name.replace("_", "-"), type=type(f.default),
                     default=f.default, is_flag=isinstance(f.default, bool),
                     show_default=True, help=_FLAG_HELP.get(f.name))
        for f in fields(FitOptions)
    ),
)


def _fit_options(params: dict) -> FitOptions:
    return FitOptions(**{f.name: params[f.name] for f in fields(FitOptions)})


def _load_data(params: dict):
    from .dataio import read_long_csv

    return read_long_csv(
        _require_flag(params, "input_path", "--input"),
        subject_col=params["subject_col"],
        time_col=params["time_col"],
        y_col=params["y_col"],
        design=_design_from_flag(params["design"]),
    )


# click 8.2 and later answer a bare ``learcov`` by raising this usage error,
# which shows the help text; earlier versions show it and exit 0.
_NO_ARGS_IS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


@contextlib.contextmanager
def _tokens():
    """End a LearcovError, an OSError or a usage error in its token.

    An OSError becomes E_PARSE_ERROR and a flag that click cannot parse
    E_INVALID_PARAMS. The token goes to stdout, the message to stderr, and
    the process exits with the error's code. When stdout fails (a full
    device), the token is left out; when its reader has gone, click ends
    the program with status 1. A bare ``learcov``, which click answers with
    the help text, is left to click.
    """
    try:
        yield
    except _NO_ARGS_IS_HELP:
        raise
    except (LearcovError, OSError, click.UsageError) as exc:
        if isinstance(exc, click.UsageError):
            exc = InvalidParams(exc.format_message())
        elif not isinstance(exc, LearcovError):
            exc = ParseError(str(exc))
        try:
            click.echo(type(exc).token)
        except BrokenPipeError:
            raise  # the reader has gone: click ends the program quietly
        except OSError:
            pass  # stdout fails; the message below still goes out
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(type(exc).exit_code)


class _Group(click.Group):
    """The learcov command group: every fault ends in a token.

    Its own options are parsed, and each subcommand runs, under _tokens.
    """

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        with _tokens():
            return super().parse_args(ctx, args)

    def invoke(self, ctx: click.Context):
        with _tokens():
            return super().invoke(ctx)


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="learcov")
def main() -> None:
    """Linear exponent autoregressive covariance models for repeated measures."""


def _command(name: str, *options):
    """Register ``body`` as subcommand ``name`` with ``options`` and --config.

    ``body`` takes the merged parameters (flags over the config file over
    defaults) and returns the JSON payload, which is printed after the
    schema_version and command keys, or None when it printed its own output.
    """
    def register(body):
        @functools.wraps(body)
        @click.pass_context
        def command(ctx, **_):
            _apply_config(ctx)
            payload = body(ctx.params)
            if payload is not None:
                click.echo(dumps(
                    {"schema_version": SCHEMA_VERSION, "command": name, **payload},
                    indent=2,
                ))

        for option in reversed((
            *options,
            click.option("--config", type=click.Path(), default=None,
                         help="key=value file supplying defaults for unset flags."),
        )):
            command = option(command)
        return main.command(name)(command)
    return register


@_command(
    "build-matrix",
    click.option("--sigma2", type=float, default=1.0, show_default=True),
    click.option("--rho-l", type=float, default=None),
    click.option("--delta", type=float, default=None),
    click.option("--times", default=None, help="Comma-separated measurement times."),
    click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                 default="json", show_default=True),
)
def build_matrix(p: dict) -> dict | None:
    """Print the covariance matrix for one subject's measurement times."""
    t = _parse_times(_require_flag(p, "times", "--times"))
    grid = build_grid([t])
    params = LearParams(p["sigma2"], _require_flag(p, "rho_l", "--rho-l"),
                        _require_flag(p, "delta", "--delta"))
    cov = lear_covariance(params, grid, 0)
    if p["fmt"] == "text":
        for row in cov:
            click.echo(" ".join(format(v, ".17g") for v in row))
        return None
    return {"times": t.tolist(), **asdict(params), "covariance": cov.tolist()}


# Largest range R that reparam --verify checks: R + 1 lags, a few vectors
# of that length.
_VERIFY_MAX_RANGE = 100_000


def _max_lag_difference(lear: LearParams, arma: Arma11Params, rng: float) -> float:
    """Largest |LEAR - ARMA(1,1)| covariance entry on the unit grid of range R.

    That grid has R + 2 points, d_min = 1 and d_max = R + 1. The two share
    sigma2, as the maps keep it, so their matrices differ only off the
    diagonal, at the lags 1..R + 1. Each lag's entries are computed as
    core._lear_corr and core._arma11_corr compute them, with a broadcast
    base for the power, so they have the matrices' bits.
    """
    d_min, d_max = 1.0, rng + 1.0
    lag = np.arange(d_min, d_max + 1.0)
    exponent = d_min + lear.delta * (lag - d_min) / (d_max - d_min)
    lear_corr = np.power(np.asarray(lear.rho_l, dtype=float)[None], exponent)
    arma_corr = arma.tau * np.power(
        np.asarray(arma.rho_a, dtype=float)[None], lag - 1.0
    )
    return float(np.max(np.abs(lear.sigma2 * lear_corr - arma.sigma2 * arma_corr)))


@_command(
    "reparam",
    click.option("--direction", type=click.Choice(["lear2arma", "arma2lear"]),
                 default=None),
    click.option("--sigma2", type=float, default=1.0, show_default=True),
    click.option("--rho-l", type=float, default=None),
    click.option("--delta", type=float, default=None),
    click.option("--tau", type=float, default=None),
    click.option("--rho-a", type=float, default=None),
    click.option("--range", "d_range", type=float, default=None,
                 help="Distance range d_max - d_min in spacing units."),
    click.option("--times", default=None,
                 help="Comma-separated times; the range is derived after "
                      "normalizing this grid."),
    click.option("--verify", is_flag=True, default=False,
                 help="Also report the max elementwise difference between the "
                      "two implied covariance matrices, lag by lag (range at "
                      f"most {_VERIFY_MAX_RANGE})."),
)
def reparam_cmd(p: dict) -> dict:
    """Map parameters between the distance and position forms."""
    from .reparam import _canonical_range, map_arma11_to_lear, map_lear_to_arma11

    direction = _require_flag(p, "direction", "--direction")
    if (p["d_range"] is None) == (p["times"] is None):
        raise InvalidParams("give exactly one of --range or --times")

    if p["times"] is not None:
        rng = _canonical_range(build_grid([_parse_times(p["times"])]))
    else:
        rng = p["d_range"]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if direction == "lear2arma":
            if p["rho_l"] is None or p["delta"] is None:
                raise InvalidParams("lear2arma needs --rho-l and --delta")
            source = lear = LearParams(p["sigma2"], p["rho_l"], p["delta"])
            target = arma = Arma11Params(
                lear.sigma2, *map_lear_to_arma11(lear.rho_l, lear.delta, rng)
            )
        else:
            if p["tau"] is None or p["rho_a"] is None:
                raise InvalidParams("arma2lear needs --tau and --rho-a")
            source = arma = Arma11Params(p["sigma2"], p["tau"], p["rho_a"])
            target = lear = LearParams(
                arma.sigma2, *map_arma11_to_lear(arma.tau, arma.rho_a, rng)
            )

    notes = [str(w.message) for w in caught]
    payload = {
        "direction": direction,
        "range": rng,
        "input": asdict(source),
        "output": asdict(target),
        "warnings": notes,
    }

    if p["verify"]:
        if p["times"] is None and (rng <= 0 or rng != int(rng)):
            raise InvalidParams(
                "--verify without --times needs a positive integer --range "
                "to build a unit-spaced grid"
            )
        if rng > _VERIFY_MAX_RANGE:
            raise InvalidParams(
                f"--verify checks ranges up to {_VERIFY_MAX_RANGE} (got {rng!r})"
            )
        payload["max_matrix_difference"] = _max_lag_difference(lear, arma, rng)
    for note in notes:
        click.echo(f"warning: {note}", err=True)
    return payload


@_command("check-special-case", *_INPUT_OPTIONS)
def check_special_case_cmd(p: dict) -> dict:
    """Report whether a dataset's grid reduces to unit-spaced integers."""
    from .reparam import _special_case

    # The dataset's pattern table, without the per-subject grid.
    data = _load_data(p)
    report = _special_case(data._patterns, data._extremes()[0])
    # The verdict first, then the flags behind it in field order.
    return {"eligible": report.eligible, **asdict(report)}


@_command(
    "simulate",
    click.option("--spec", "spec_path", type=click.Path(), default=None,
                 help="JSON simulation spec (see load_sim_spec)."),
    click.option("--out", "out_path", type=click.Path(), default=None,
                 help="Output CSV path."),
)
def simulate_cmd(p: dict) -> dict:
    """Draw a dataset from a JSON spec and write it as long-format CSV."""
    from .dataio import load_sim_spec, write_long_csv
    from .sim import simulate

    spec = load_sim_spec(_require_flag(p, "spec_path", "--spec"))
    data = simulate(spec)
    write_long_csv(_require_flag(p, "out_path", "--out"), data)
    return {
        "n_subjects": data.n_subjects,
        "n_obs": data.n_obs,
        "seed": spec.seed,
        "out": str(p["out_path"]),
    }


@_command(
    "fit",
    *_INPUT_OPTIONS,
    click.option("--param", "parameterization",
                 type=click.Choice(PARAMETERIZATIONS), default="lear",
                 show_default=True),
    *_FIT_OPTIONS,
)
def fit_cmd(p: dict) -> dict:
    """Fit one covariance parameterization by profile ML or REML."""
    from .estimation import fit

    return fit(
        _load_data(p),
        parameterization=p["parameterization"],
        criterion=p["criterion"],
        options=_fit_options(p),
    ).to_dict()


@_command("compare", *_INPUT_OPTIONS, *_FIT_OPTIONS)
def compare_cmd(p: dict) -> dict:
    """Fit both parameterizations and report how well they agree."""
    from .estimation import compare_parameterizations

    return compare_parameterizations(
        _load_data(p), criterion=p["criterion"], options=_fit_options(p)
    ).to_dict()


def run() -> None:
    """Run ``main`` as the learcov program, then end the process at once.

    The entry point of ``learcov`` and ``python -m learcov``. After main
    exits, run does what the interpreter would do up to flushing the output:
    the atexit handlers run, stdout and stderr are flushed, and the process
    exits with main's status. The rest of the interpreter's teardown (module
    cleanup, the final garbage collection, ``__del__`` at exit), about 30 ms
    of a command, is skipped. The interpreter exits as usual after an
    uncaught exception or an exit code that is not an integer, when stdout
    or stderr is missing or fails to flush, and under a tracer or profiler
    such as ``python -m cProfile``, which reports at its own exit.
    """
    try:
        main(prog_name="learcov")
    except SystemExit as exc:
        status = 0 if exc.code is None else exc.code
        if not isinstance(status, int) or sys.gettrace() or sys.getprofile():
            raise
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except Exception:
            # A stream that is None (no descriptor at start), closed or
            # failing: the interpreter's exit flushes it again and reports.
            raise exc from None
        os._exit(status)


if __name__ == "__main__":
    main()
