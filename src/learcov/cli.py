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

One table, _COMMANDS, maps each subcommand to its options, its help summary
and its body. main builds the options of the invoked subcommand only, and
each body imports the numerics it runs: this module imports neither numpy
nor learcov.core, so simulate never loads the estimation code,
check-special-case neither it, the simulator nor learcov.model, and
check-special-case of a small file not numpy either (see learcov.plain).
Nor does this module import dataclasses: the bodies that read a
dataclass's fields import it, and the check writes its document from the
verdict's flags.
The grammar is the one learcov had on click, kept token for token: a
value-taking flag takes the next token whatever it looks like (--times
-1,0,1), flags are never abbreviated, and every usage error is
E_INVALID_PARAMS with click's wording, raised in click's order. argparse,
whose reading of tokens differs in each of these, only formats --help.

run, the entry point of the learcov program, ends the process as soon as
the output is flushed; main returns the exit status.
"""
from __future__ import annotations

import atexit
import errno
import os
import sys
import warnings
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from ._jsonio import dumps
from .errors import InvalidParams, LearcovError, ParseError

if TYPE_CHECKING:
    import numpy as np

    from .core import Arma11Params, LearParams

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# option values: each converter returns the value or raises ValueError with
# the reason click gave


def _text(text: str) -> str:
    return text


def _number(kind: type, name: str):
    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid {name}.") from None

    convert.metavar = name.upper()
    return convert


_float, _int = _number(float, "float"), _number(int, "integer")


def _path(text: str) -> str:
    """A path, refused when it exists and cannot be read, or when os.stat
    refuses it as a path (a NUL byte, which only a config file can hold)."""
    try:
        os.stat(text)
    except OSError:
        return text
    if not os.access(text, os.R_OK):
        shown = text.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
        raise ValueError(f"Path {shown!r} is not readable.")
    return text


# The spellings of a switch's value in a config file; an empty value is off.
_BOOL_STATES = {
    "1": True, "true": True, "t": True, "yes": True, "y": True, "on": True,
    "0": False, "false": False, "f": False, "no": False, "n": False, "off": False,
    "": False,
}


def _bool(value: str | bool) -> bool:
    if isinstance(value, bool):  # a switch given on the command line
        return value
    state = _BOOL_STATES.get(value.strip().lower())
    if state is None:
        raise ValueError(f"{value!r} is not a valid boolean. Recognized values: "
                         f"{', '.join(sorted(_BOOL_STATES))}")
    return state


def _choice(*choices: str):
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text

    convert.metavar = "[" + "|".join(choices) + "]"
    return convert


_text.metavar, _path.metavar = "TEXT", "PATH"


class _Option(NamedTuple):
    """One flag: ``--grid-points`` sets ``grid_points``. A flag whose
    converter is _bool is a switch and takes no value."""

    flag: str
    dest: str
    convert: Callable
    default: object = None
    help: str | None = None


def _flag(flag: str, convert: Callable, default=None, help=None, dest=None) -> _Option:
    return _Option(flag, dest or flag[2:].replace("-", "_"), convert, default, help)


_CONFIG = _flag("--config", _path,
                help="key=value file supplying defaults for unset flags.")
# The input and columns of a check; a fit also reads y and the design.
_TIME_OPTIONS = (
    _flag("--input", _path, help="Long-format CSV file.", dest="input_path"),
    _flag("--subject-col", _text, "subject"),
    _flag("--time-col", _text, "time"),
)
_INPUT_OPTIONS = (
    *_TIME_OPTIONS,
    _flag("--y-col", _text, "y"),
    _flag("--design", _text, "intercept",
          "intercept, intercept-time, or comma-separated covariate column names."),
)
_FLAG_HELP = {"allow_negative": "Widen the ARMA(1,1) box to negative parameters."}
_CONVERTERS = {int: _int, float: _float, bool: _bool}


def _param_flag() -> tuple[_Option, ...]:
    from .model import PARAMETERIZATIONS

    return (_flag("--param", _choice(*PARAMETERIZATIONS), "lear",
                  dest="parameterization"),)


def _fit_flags() -> tuple[_Option, ...]:
    """--criterion, then one flag per FitOptions field, of the field's type
    and with its default."""
    from dataclasses import fields

    from .model import CRITERIA, FitOptions

    return (
        _flag("--criterion", _choice(*CRITERIA), "ml"),
        *(_flag("--" + f.name.replace("_", "-"), _CONVERTERS[type(f.default)],
                f.default, _FLAG_HELP.get(f.name))
          for f in fields(FitOptions)),
    )


# --------------------------------------------------------------------------
# the command table


class _Command(NamedTuple):
    summary: str
    # Options, and functions that return options when they are built.
    options: tuple
    body: Callable[[dict], dict | None]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, *options):
    """Register ``body`` as subcommand ``name`` with ``options`` and --config.

    ``body`` takes the merged parameters (flags over the config file over
    defaults) and returns the JSON payload, which is printed after the
    schema_version and command keys, or None when it printed its own output.
    """
    def register(body):
        _COMMANDS[name] = _Command(body.__doc__.partition("\n")[0], options, body)
        return body
    return register


def _options(name: str) -> list[_Option]:
    """The options of subcommand ``name``, --config last."""
    return [*(option for item in _COMMANDS[name].options
              for option in (item() if callable(item) else (item,))), _CONFIG]


# --------------------------------------------------------------------------
# output and errors


def _echo(text: str, err: bool = False) -> None:
    """Write ``text`` and a newline to stdout (stderr if ``err``) and flush.

    Nothing is written when the stream is missing, and ANSI escapes are
    removed when it is not a terminal.
    """
    stream = sys.stderr if err else sys.stdout
    if stream is None:
        return
    if "\x1b" in text and not stream.isatty():
        import re

        text = re.sub(r"\033\[[;?0-9]*[a-zA-Z]", "", text)
    stream.write(text + "\n")
    stream.flush()


def _suggest(message: str, word: str, known) -> InvalidParams:
    """InvalidParams(message), naming the close matches of ``word`` in
    ``known`` if there are any."""
    from difflib import get_close_matches

    close = sorted(get_close_matches(word, known))
    if len(close) == 1:
        message += f" Did you mean {close[0]!r}?"
    elif close:
        message += f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return InvalidParams(message)


def _no_such_option(arg: str, known) -> InvalidParams:
    # A token with a single dash is read letter by letter, and its first
    # letter is no option.
    if arg[:2] != "--":
        return InvalidParams(f"No such option {arg[:2]!r}.")
    name = arg.partition("=")[0]
    return _suggest(f"No such option {name!r}.", name, known)


def _invalid_value(option: _Option, value):
    try:
        return option.convert(value)
    except ValueError as exc:
        raise InvalidParams(f"Invalid value for '{option.flag}': {exc}") from None


def _help(name: str, options: list[_Option]) -> str:
    """The --help text of subcommand ``name``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog=f"learcov {name}", usage=f"learcov {name} [OPTIONS]",
        description=_COMMANDS[name].summary, add_help=False)
    for option in options:
        default = (None if option.default is None or option.default is False
                   else f"[default: {option.default}]")
        help_text = " ".join(filter(None, (option.help, default)))
        if option.convert is _bool:
            parser.add_argument(option.flag, action="store_true", help=help_text)
        else:
            parser.add_argument(option.flag, metavar=option.convert.metavar,
                                help=help_text)
    parser.add_argument("--help", action="store_true",
                        help="Show this message and exit.")
    return parser.format_help().rstrip("\n")


def _program_help() -> str:
    width = max(map(len, _COMMANDS))
    return "\n".join([
        "usage: learcov [--version] [--help] COMMAND [OPTIONS]",
        "",
        "Linear exponent autoregressive covariance models for repeated measures.",
        "",
        "commands:",
        *(f"  {name:{width}}  {command.summary}" for name, command in _COMMANDS.items()),
        "",
        "options:",
        "  --version  Show the version and exit.",
        "  --help     Show this message and exit.",
        "",
        "Run 'learcov COMMAND --help' for the options of a command.",
    ])


_PROGRAM_OPTIONS = ("--version", "--help")


def _program_options(args: list[str]) -> tuple[int | None, list[str]]:
    """Read the options before the command.

    Returns 0 once --version or --help, whichever came first, has printed
    (None if neither was given), and the arguments from the command on.
    """
    given = []
    rest: list[str] = []
    for i, arg in enumerate(args):
        if arg == "--":
            rest = args[i + 1:]
            break
        if arg[:1] != "-" or len(arg) == 1:
            rest = args[i:]
            break
        name, eq, _ = arg.partition("=")
        if name not in _PROGRAM_OPTIONS:
            raise _no_such_option(arg, _PROGRAM_OPTIONS)
        if eq:
            raise InvalidParams(f"Option {name!r} does not take a value.")
        given.append(name)
    if not given:
        return None, rest
    _echo(f"learcov, version {__version__}" if given[0] == "--version"
          else _program_help())
    return 0, rest


def _parse(name: str, args: list[str]) -> tuple[list[_Option], dict, set] | None:
    """The options, parameters and given flags of subcommand ``name``.

    The errors are click's, in its order: the first malformed token; then
    the first given value that does not convert, in the order the flags
    first appear (a flag given twice keeps its last value); then arguments
    that belong to no flag. None means --help has printed.
    """
    options = _options(name)
    by_flag = {option.flag: option for option in options}
    given: dict[str, str | bool] = {}
    extra = []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            extra += args[i:]
            break
        if arg[:1] != "-" or len(arg) == 1:
            extra.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        option = by_flag.get(flag)
        if flag != "--help" and option is None:
            raise _no_such_option(arg, [*by_flag, "--help"])
        if flag == "--help" or option.convert is _bool:
            if eq:
                raise InvalidParams(f"Option {flag!r} does not take a value.")
            value = True
        elif not eq:
            if i == len(args):
                raise InvalidParams(f"Option {flag!r} requires an argument.")
            value = args[i]
            i += 1
        given[flag] = value
    if "--help" in given:
        _echo(_help(name, options))
        return None
    params = {option.dest: option.default for option in options}
    for flag, value in given.items():
        params[by_flag[flag].dest] = _invalid_value(by_flag[flag], value)
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise InvalidParams(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return options, params, {by_flag[flag].dest for flag in given}


def _apply_config(options: list[_Option], params: dict, given: set) -> None:
    """Fill parameters no flag set from the config file."""
    path = params["config"]
    if not path:
        return
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first key.
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    for option in options:
        if option is _CONFIG or option.dest in given:
            continue
        # Accept both the flag spelling (--grid-points) and the parameter
        # name (input_path for --input).
        for key in (option.flag[2:].replace("-", "_"), option.dest):
            if key in entries:
                params[option.dest] = _invalid_value(option, entries[key])
                break


def _report(exc: Exception) -> int:
    """Print ``exc`` as its token and message; return its exit code.

    An OSError or a file that is not UTF-8 is E_PARSE_ERROR. When stdout
    fails (a full device), the token is left out; when its reader has gone,
    the BrokenPipeError goes on to main.
    """
    if not isinstance(exc, LearcovError):
        exc = ParseError(str(exc))
    try:
        _echo(type(exc).token)
    except BrokenPipeError:
        raise
    except OSError:
        pass  # stdout fails; the message below still goes out
    _echo(f"{type(exc).__name__}: {exc}", err=True)
    return type(exc).exit_code


def _dispatch(args: list[str]) -> int:
    status, rest = _program_options(args)
    if status is not None:
        return status
    if not rest:
        raise InvalidParams("Missing command.")
    name = rest[0]
    if name not in _COMMANDS:
        if name.startswith("-"):  # after --: the options are read once more
            status, _ = _program_options(rest)
            if status is not None:
                return status
        raise _suggest(f"No such command {name!r}.", name, _COMMANDS)
    parsed = _parse(name, rest[1:])
    if parsed is None:
        return 0
    options, params, given = parsed
    _apply_config(options, params, given)
    payload = _COMMANDS[name].body(params)
    if payload is not None:
        _echo(dumps({"schema_version": SCHEMA_VERSION, "command": name, **payload},
                    indent=2))
    return 0


class _Pacified:
    """A stream whose flush ignores a reader that has gone."""

    def __init__(self, stream):
        self._stream = stream

    def flush(self) -> None:
        try:
            self._stream.flush()
        except OSError as exc:
            if exc.errno != errno.EPIPE:
                raise

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv: list[str] | None = None) -> int:
    """Run the learcov program on ``argv`` (default ``sys.argv[1:]``) and
    return its exit status.

    The JSON document or token goes to ``sys.stdout`` and messages to
    ``sys.stderr``. A bare ``learcov`` prints the help to stderr and returns
    2. When stdout's reader has gone, main returns 1 and leaves both streams
    so that flushing them later raises nothing.
    """
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        _echo(_program_help(), err=True)
        return 2
    try:
        try:
            return _dispatch(args)
        except (LearcovError, OSError, UnicodeDecodeError) as exc:
            return _report(exc)
    except (EOFError, KeyboardInterrupt):
        _echo("", err=True)
        _echo("Aborted!", err=True)
        return 1
    except OSError as exc:
        if exc.errno != errno.EPIPE:
            raise
        sys.stdout, sys.stderr = _Pacified(sys.stdout), _Pacified(sys.stderr)
        return 1


# --------------------------------------------------------------------------
# the subcommands


def _require_flag(params: dict, name: str, flag: str):
    """Presence check deferred past config application.

    A flag that must be given may come from the config file instead; it is
    only missing once both sources are merged.
    """
    if params.get(name) is None:
        raise InvalidParams(f"missing required option {flag}")
    return params[name]


def _parse_times(text: str) -> np.ndarray:
    import numpy as np

    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"cannot parse times {text!r}; expected e.g. 1,2,3") from None
    if not values:
        raise ParseError("times list is empty")
    return np.array(values)


def _fit_options(params: dict):
    from dataclasses import fields

    from .model import FitOptions

    return FitOptions(**{f.name: params[f.name] for f in fields(FitOptions)})


def _load_data(params: dict):
    from .dataio import read_long_csv
    from .model import DESIGN_RULES

    design = params["design"]
    return read_long_csv(
        _require_flag(params, "input_path", "--input"),
        subject_col=params["subject_col"],
        time_col=params["time_col"],
        y_col=params["y_col"],
        design=(design if design in DESIGN_RULES
                else [c.strip() for c in design.split(",")]),
    )


@_command(
    "build-matrix",
    _flag("--sigma2", _float, 1.0),
    _flag("--rho-l", _float),
    _flag("--delta", _float),
    _flag("--times", _text, help="Comma-separated measurement times."),
    _flag("--format", _choice("json", "text"), "json", dest="fmt"),
)
def build_matrix(p: dict) -> dict | None:
    """Print the covariance matrix for one subject's measurement times."""
    from dataclasses import asdict

    from .core import LearParams, build_grid, lear_covariance

    t = _parse_times(_require_flag(p, "times", "--times"))
    grid = build_grid([t])
    params = LearParams(p["sigma2"], _require_flag(p, "rho_l", "--rho-l"),
                        _require_flag(p, "delta", "--delta"))
    cov = lear_covariance(params, grid, 0)
    if p["fmt"] == "text":
        for row in cov:
            _echo(" ".join(format(v, ".17g") for v in row))
        return None
    return {"times": t.tolist(), **asdict(params), "covariance": cov.tolist()}


# Largest range R that reparam --verify checks: R + 1 lags, a few vectors
# of that length.
_VERIFY_MAX_RANGE = 100_000


def _max_lag_difference(lear: LearParams, arma: Arma11Params, rng: float) -> float:
    """Largest |LEAR - ARMA(1,1)| covariance entry on the unit grid of range R.

    That grid has R + 2 points, d_min = 1 and d_max = R + 1. The two share
    sigma2, as the maps keep it, so their matrices differ only off the
    diagonal, at the lags 1..R + 1. Each lag's entries come from the
    functions the matrices' entries come from, so they have their bits.
    """
    import numpy as np

    from .core import _arma11_power, _lear_power

    d_min, d_max = 1.0, rng + 1.0
    lag = np.arange(d_min, d_max + 1.0)
    lear_corr = _lear_power(lear.rho_l, lear.delta, lag, d_min, d_max)
    arma_corr = _arma11_power(arma.tau, arma.rho_a, lag)
    return float(np.max(np.abs(lear.sigma2 * lear_corr - arma.sigma2 * arma_corr)))


@_command(
    "reparam",
    _flag("--direction", _choice("lear2arma", "arma2lear")),
    _flag("--sigma2", _float, 1.0),
    _flag("--rho-l", _float),
    _flag("--delta", _float),
    _flag("--tau", _float),
    _flag("--rho-a", _float),
    _flag("--range", _float, help="Distance range d_max - d_min in spacing units.",
          dest="d_range"),
    _flag("--times", _text,
          help="Comma-separated times; the range is derived after normalizing "
               "this grid."),
    _flag("--verify", _bool, False,
          help="Also report the max elementwise difference between the two "
               "implied covariance matrices, lag by lag (range at most "
               f"{_VERIFY_MAX_RANGE})."),
)
def reparam_cmd(p: dict) -> dict:
    """Map parameters between the distance and position forms."""
    from dataclasses import asdict

    from .core import Arma11Params, LearParams, build_grid
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
        _echo(f"warning: {note}", err=True)
    return payload


@_command("check-special-case", *_TIME_OPTIONS)
def check_special_case_cmd(p: dict) -> dict:
    """Report whether a dataset's grid reduces to unit-spaced integers."""
    from .plain import FLAGS, _check_csv

    # The verdict depends on the times alone: no y, design or dataset. A
    # small file is judged without numpy.
    flags = _check_csv(_require_flag(p, "input_path", "--input"),
                       [p["subject_col"], p["time_col"]])
    # The verdict first, then the flags behind it in field order.
    return {"eligible": flags[-1], **dict(zip(FLAGS, flags))}


@_command(
    "simulate",
    _flag("--spec", _path, help="JSON simulation spec (see load_sim_spec).",
          dest="spec_path"),
    _flag("--out", _path, help="Output CSV path.", dest="out_path"),
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


@_command("fit", *_INPUT_OPTIONS, _param_flag, _fit_flags)
def fit_cmd(p: dict) -> dict:
    """Fit one covariance parameterization by profile ML or REML."""
    from .estimation import fit

    return fit(
        _load_data(p),
        parameterization=p["parameterization"],
        criterion=p["criterion"],
        options=_fit_options(p),
    ).to_dict()


@_command("compare", *_INPUT_OPTIONS, _fit_flags)
def compare_cmd(p: dict) -> dict:
    """Fit both parameterizations and report how well they agree."""
    from .estimation import compare_parameterizations

    return compare_parameterizations(
        _load_data(p), criterion=p["criterion"], options=_fit_options(p)
    ).to_dict()


def run() -> None:
    """Run ``main`` as the learcov program, then end the process at once.

    The entry point of ``learcov`` and ``python -m learcov``. After main
    returns, run does what the interpreter would do up to flushing the
    output: the atexit handlers run, stdout and stderr are flushed, and the
    process exits with main's status. The rest of the interpreter's teardown
    (module cleanup, the final garbage collection, ``__del__`` at exit),
    about 30 ms of a command, is skipped. The interpreter exits as usual
    after an uncaught exception, when stdout or stderr is missing or fails
    to flush, and under a tracer or profiler such as ``python -m cProfile``,
    which reports at its own exit.
    """
    status = main()
    if sys.gettrace() or sys.getprofile():
        sys.exit(status)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        # A stream that is None (no descriptor at start), closed or
        # failing: the interpreter's exit flushes it again and reports.
        raise SystemExit(status) from None
    os._exit(status)


if __name__ == "__main__":
    run()
