"""Command-line front end.

Conventions:
  * angles and angular spreads cross this boundary in degrees; everything
    internal is radians;
  * SNR flags take dB values, with the token ``inf`` meaning a noiseless
    record (``-inf`` is SNR 0 and is rejected);
  * outputs are CSV with ``#`` provenance comments (tool version, command,
    seed, grid hash) and are byte-deterministic for identical invocations;
    ``--json`` emits the same rows as a JSON document instead;
  * each command declares its options once, in its ``_command`` table; a
    JSON config file (``--config``) can supply any of them by table key
    (``snr_db`` for ``--snr-db``, ``in_path`` for ``--in``, ``json_output``
    for ``--json``), an unknown key is an error, and flags win over config;
  * exit codes: 0 success, 1 usage, 2 validation (including an input whose
    arithmetic overflows or whose arrays do not fit in memory), 3 numeric
    failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import re
import sys
from fractions import Fraction
from itertools import product
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from . import __version__
from .divergences import (
    bhattacharyya_distance,
    density_from_pdf,
    gaussian_approximation,
    kl_divergence,
    uniform_density_on,
)
from .errors import EmptyInput, OutOfRange, SupportMismatch, SyncPhaseError
from .mc_harness import McConfig, run_convergence_battery, run_mc
from .phase_pdf import (
    PolarPdf,
    error_report,
    pdf_value,
    rmse_floor_approx,
    rmse_linear_approx,
)
from .signal_model import (
    generate,
    make_params,
    on_two_threads,
    read_samples_csv,
    sigma_x_for_snr,
)
from .spectral_estimator import estimate_phase, theoretical_moments

_REQUIRED = object()


class _Parser(argparse.ArgumentParser):
    """argparse that exits with status 1 (not 2) on usage errors.

    No option here looks like a negative number, so tokens such as
    ``-20,0,20`` (a list starting with a negative value) are always values;
    the widened matcher keeps argparse from treating them as option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# --- option plumbing ----------------------------------------------------------
# Casts run after parsing, so a bad value exits 2 (validation) and not 1.

def _cast_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)  # parses "inf", "+inf" and "infinity" too


def _cast_int(value) -> int:
    if isinstance(value, str):
        return int(value, 10)
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _tokens(value) -> list:
    if isinstance(value, list):  # a JSON list from the config file
        tokens = value
    else:
        tokens = [tok for tok in str(value).split(",") if tok.strip() != ""]
    if not tokens:
        raise ValueError("empty list")
    return tokens


def _cast_float_list(value) -> List[float]:
    return [_cast_float(v) for v in _tokens(value)]


def _cast_int_list(value) -> List[int]:
    return [_cast_int(v) for v in _tokens(value)]


def _cast_flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"not true or false: {value!r}")
    return value


class _Opt(NamedTuple):
    """One option of a command: its cast, its default, and its flag.

    A default is written as the text a user would pass, so it goes through
    the same cast and the help shows it as typed.
    """

    cast: Callable[[Any], Any]
    default: Any = _REQUIRED
    flag: str = ""  # "" means "--" plus the key with "-" for "_"


# Option key -> help text, shared by every command that takes the option.
_HELP = {
    "amplitude": "tone amplitude",
    "f0": "signal frequency in Hz",
    "fs": "sampling rate in Hz",
    "snr_db": "SNR in dB; 'inf' for noiseless",
    "sigma_p_deg": "phase-noise std in degrees",
    "phi_deg": "true phase in degrees",
    "n": "record length",
    "seed": "master seed",
    "out": "output path (default stdout)",
    "json_output": "emit JSON instead of CSV",
    "in_path": "input CSV (n,sample rows)",
    "theta_start_deg": "first tabulated angle in degrees",
    "theta_stop_deg": "last tabulated angle in degrees",
    "points": "number of tabulation points",
    "draws": "number of Monte-Carlo draws",
    "hist_out": "also write the 720-bin estimate histogram here",
    "reps": "normality-test repetitions",
    "hz_draws": "draws per repetition",
    "hoeffding_draws": "draws for the independence statistic",
    "alpha": "significance level",
}

# Options shared by several commands.
_SIGNAL = dict(amplitude=_Opt(_cast_float, "1.0"), f0=_Opt(str, "1.0"),
               fs=_Opt(str, "10.0"))
_OUTPUT = dict(out=_Opt(str, None),
               json_output=_Opt(_cast_flag, False, "--json"))

# Command name -> (help text, function, option table).
_COMMANDS: Dict[str, tuple] = {}


def _command(name: str, help_text: str, **options: _Opt):
    """Register the decorated function as command ``name`` with ``options``."""
    table = {key: opt._replace(flag=opt.flag or "--" + key.replace("_", "-"))
             for key, opt in options.items()}

    def register(func):
        _COMMANDS[name] = (help_text, func, table)
        return func
    return register


def _resolve(table: Dict[str, _Opt], args: argparse.Namespace,
             config: Dict[str, Any]) -> argparse.Namespace:
    """Cast every option of ``table`` from its flag, else from the config
    file, else take its default."""
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise OutOfRange(f"unknown config key(s): {', '.join(unknown)}")
    resolved = argparse.Namespace()
    for key, opt in table.items():
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is None:
            value = opt.default
        if value is _REQUIRED:
            raise OutOfRange(f"missing required option {opt.flag}")
        if value is not None:
            try:
                value = opt.cast(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise OutOfRange(f"bad value for {opt.flag}: {value!r}") from exc
        setattr(resolved, key, value)
    return resolved


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _grid_hash(o: argparse.Namespace, *keys: str, **extra) -> str:
    """Digest of the options ``keys`` of ``o`` plus ``extra``, and of each
    signal option (amplitude, f0, fs) whose value differs from its default.
    Those are compared and hashed as exact numbers, so ``--fs 10`` and
    ``--fs 10.0`` are the default, and a table at the default signal keeps
    the digest of its grid alone."""
    grid = {key: getattr(o, key) for key in keys}
    for key, opt in _SIGNAL.items():
        value = Fraction(str(getattr(o, key)))
        if value != Fraction(opt.default):
            grid[key] = str(value)
    grid.update(extra)
    canon = json.dumps(grid, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_table(
    o: argparse.Namespace,
    command: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    provenance: Dict[str, Any],
    out_path: Optional[str],
    csv_body: Optional[str] = None,
) -> None:
    """Write the table as CSV or, with ``--json``, as JSON.  ``csv_body``,
    if given, is the CSV rendering of ``rows`` (one line each), written in
    place of formatting them."""
    meta = {"tool": f"syncphase {__version__}", "command": command, **provenance}
    buffer = io.StringIO()
    if o.json_output:
        doc = {
            "provenance": meta,
            "columns": list(columns),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        json.dump(doc, buffer, indent=2, default=str)
        buffer.write("\n")
    else:
        for key, value in meta.items():
            buffer.write(f"# {key}: {value}\n")
        buffer.write(",".join(columns) + "\n")
        if csv_body is None:
            for row in rows:
                buffer.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            buffer.write(csv_body)
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())


def _params_from(o, snr_db, sigma_p_deg, n, phi_deg=0.0):
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise OutOfRange(f"--snr-db {snr_db!r} is too large: its linear SNR "
                         f"overflows a float; use 'inf' for noiseless") from None
    return make_params(
        o.amplitude,
        o.f0,
        o.fs,
        phase=math.radians(phi_deg),
        sigma_additive=sigma_x_for_snr(o.amplitude, snr),
        sigma_phase=math.radians(sigma_p_deg),
        n_samples=n,
    )


# --- commands -------------------------------------------------------------------

@_command("gen", "generate one noisy record as CSV",
          **_SIGNAL, snr_db=_Opt(_cast_float, "inf"),
          sigma_p_deg=_Opt(_cast_float, "0"), phi_deg=_Opt(_cast_float, "0"),
          n=_Opt(_cast_int), seed=_Opt(_cast_int, "0"), **_OUTPUT)
def _cmd_gen(o) -> int:
    params = _params_from(o, o.snr_db, o.sigma_p_deg, o.n, o.phi_deg)
    samples = generate(params, o.seed)
    # the CSV is the format read_samples_csv reads: n,sample rows
    _write_table(
        o, "gen", ["n", "sample"], [[i, float(v)] for i, v in enumerate(samples)],
        {"seed": o.seed, "f0": params.f0, "fs": params.fs, "snr_db": o.snr_db,
         "sigma_p_deg": o.sigma_p_deg, "phi_deg": o.phi_deg}, o.out,
    )
    return 0


@_command("estimate", "estimate the phase of a record CSV",
          in_path=_Opt(str, flag="--in"), **_SIGNAL, **_OUTPUT)
def _cmd_estimate(o) -> int:
    try:
        with open(o.in_path) as fp:
            samples = read_samples_csv(fp)
    except OSError as exc:
        raise OutOfRange(f"cannot read {o.in_path}: {exc}") from exc
    except (EmptyInput, OutOfRange) as exc:
        raise type(exc)(f"{o.in_path}: {exc}") from exc
    params = _params_from(o, math.inf, 0.0, samples.shape[0])
    result = estimate_phase(samples, params)
    rows = [[
        math.degrees(result.phase_estimate),
        result.phase_estimate,
        result.d_reduced.real,
        result.d_reduced.imag,
    ]]
    _write_table(o, "estimate", ["phase_deg", "phase_rad", "d_re", "d_im"],
                 rows, {"input": o.in_path}, o.out)
    return 0


@_command("rmse", "analytic error sweep over a parameter grid",
          **_SIGNAL, snr_db=_Opt(_cast_float_list, "0"),
          sigma_p_deg=_Opt(_cast_float_list, "0"), n=_Opt(_cast_int_list),
          **_OUTPUT)
def _cmd_rmse(o) -> int:
    columns = [
        "snr_db", "sigma_p_deg", "n", "rmse_analytic_deg",
        "rmse_linear_approx_deg", "rmse_floor_deg", "crlb_deg2",
        "efficiency", "regime", "diagnostics",
    ]
    rows = []
    for snr_db, sigma_p, n in sorted(product(o.snr_db, o.sigma_p_deg, o.n)):
        params = _params_from(o, snr_db, sigma_p, n)
        moments = theoretical_moments(params)
        # ahead of the report: the NA row needs them
        linear = rmse_linear_approx(n, moments.snr)
        floor = rmse_floor_approx(moments)
        try:
            report = error_report(moments)
        except SyncPhaseError as exc:
            rows.append([
                snr_db, sigma_p, n, None, math.degrees(linear),
                math.degrees(floor), None, None, None,
                f"{type(exc).__name__}: {exc}",
            ])
            continue
        # sqrt(CRLB) is the generic floor sqrt((1-b^2+1/SNR)/(b^2 N))
        generic = math.degrees(math.sqrt(report.crlb))
        diagnostics = (f"floor_generic_deg={generic!r}" if params.sigma_phase > 0
                       and moments.one_minus_beta_sq < 100.0 / moments.snr else "")
        rows.append([
            snr_db, sigma_p, n,
            math.degrees(report.rmse_analytic),
            math.degrees(report.rmse_linear_approx),
            math.degrees(report.rmse_floor_approx),
            report.crlb * math.degrees(1.0) ** 2,
            report.efficiency,
            report.regime.value,
            diagnostics,
        ])
    _write_table(o, "rmse", columns, rows,
                 {"grid-sha256": _grid_hash(o, "snr_db", "sigma_p_deg", "n")},
                 o.out)
    return 0


@_command("pdf", "tabulate the phase-estimate density",
          **_SIGNAL, snr_db=_Opt(_cast_float),
          sigma_p_deg=_Opt(_cast_float, "0"), phi_deg=_Opt(_cast_float, "0"),
          n=_Opt(_cast_int), theta_start_deg=_Opt(_cast_float, "-180"),
          theta_stop_deg=_Opt(_cast_float, "180"), points=_Opt(_cast_int, "721"),
          **_OUTPUT)
def _cmd_pdf(o) -> int:
    start, stop, points = o.theta_start_deg, o.theta_stop_deg, o.points
    if points < 2:
        raise OutOfRange(f"--points must be >= 2, got {points}")
    # also rejects nan and infinite bounds; np.linspace needs stop - start
    if not math.isfinite(stop - start):
        raise OutOfRange("--theta-stop-deg minus --theta-start-deg must be "
                         "finite")
    if not stop > start:
        raise OutOfRange("--theta-stop-deg must exceed --theta-start-deg")
    params = _params_from(o, o.snr_db, o.sigma_p_deg, o.n, o.phi_deg)
    pdf = PolarPdf.from_moments(theoretical_moments(params))
    thetas = np.linspace(start, stop, points)
    values = pdf_value(pdf, np.radians(thetas))
    rows = [[float(t), float(g)] for t, g in zip(thetas, values)]
    _write_table(
        o, "pdf", ["theta_deg", "g_value"], rows,
        {"grid-sha256": _grid_hash(o, "snr_db", "sigma_p_deg", "phi_deg", "n",
                                   theta=[start, stop, points])},
        o.out,
    )
    return 0


@_command("mc", "Monte-Carlo estimate of the error statistics",
          **_SIGNAL, snr_db=_Opt(_cast_float),
          sigma_p_deg=_Opt(_cast_float, "0"), phi_deg=_Opt(_cast_float, "0"),
          n=_Opt(_cast_int), seed=_Opt(_cast_int, "0"), draws=_Opt(_cast_int),
          hist_out=_Opt(str, None), **_OUTPUT)
def _cmd_mc(o) -> int:
    params = _params_from(o, o.snr_db, o.sigma_p_deg, o.n, o.phi_deg)
    report = run_mc(McConfig(params=params, n_draws=o.draws,
                             master_seed=o.seed))
    provenance = {"seed": o.seed, "grid-sha256": _grid_hash(
        o, "snr_db", "sigma_p_deg", "phi_deg", "n", "draws")}
    rows = [[
        report.n_draws,
        math.degrees(report.rmse_empirical),
        math.degrees(report.bias_empirical),
        report.mean_d.real,
        report.mean_d.imag,
        report.var_d,
        math.degrees(report.mc_standard_error),
    ]]
    _write_table(
        o, "mc",
        ["n_draws", "rmse_empirical_deg", "bias_empirical_deg",
         "mean_d_re", "mean_d_im", "var_d", "mc_standard_error_deg"],
        rows, provenance, o.out,
    )
    if o.hist_out:
        thetas, cells = _hist_thetas(report.hist_edges.tobytes())
        counts = report.hist_counts.tolist()
        csv_body = None if o.json_output else "".join(
            [cell + str(k) + "\n" for cell, k in zip(cells, counts)])
        _write_table(
            o, "mc-hist", ["theta_deg", "count"], list(zip(thetas, counts)),
            provenance, o.hist_out, csv_body,
        )
    return 0


@functools.lru_cache(maxsize=1)
def _hist_thetas(edges: bytes) -> Tuple[Tuple[float, ...], Tuple[str, ...]]:
    """The histogram's bin centres in degrees, as floats and as the CSV
    cells ``_fmt(theta) + ","``, from the float64 ``edges``.  ``run_mc``
    returns the same edges in every run, so they are formatted once per
    process."""
    e = np.frombuffer(edges)
    thetas = tuple(np.degrees(0.5 * (e[:-1] + e[1:])).tolist())
    return thetas, tuple(_fmt(t) + "," for t in thetas)


@_command("divergence", "divergences between the exact density, uniform, "
                        "and Gaussian approximations",
          **_SIGNAL, snr_db=_Opt(_cast_float_list),
          sigma_p_deg=_Opt(_cast_float, "0"), n=_Opt(_cast_int), **_OUTPUT)
def _cmd_divergence(o) -> int:
    """One row per SNR, in sorted order.  The cells are independent: with
    two or more, the calling thread computes the first half (rounded up)
    and a worker the rest (:func:`on_two_threads`), so the first failing
    cell in sorted order still names the error."""
    snrs = sorted(o.snr_db)
    # beta_p depends on --sigma-p-deg alone: checked once, on the first
    # cell's moments, so that cell's own input errors still come first
    first = theoretical_moments(_params_from(o, snrs[0], o.sigma_p_deg, o.n))
    if first.beta_p == 0.0:
        raise OutOfRange(
            f"--sigma-p-deg {o.sigma_p_deg!r} leaves no lobe: "
            "exp(-sigma_p^2/2) underflows to 0, so the density is "
            "uniform and its Gaussian approximation does not exist")

    def cell(snr_db) -> list:
        params = _params_from(o, snr_db, o.sigma_p_deg, o.n)
        moments = theoretical_moments(params)
        p = density_from_pdf(PolarPdf.from_moments(moments))
        # the other two grids share p's node set, checked once
        q_gauss = gaussian_approximation(moments, p)
        kl_uniform = kl_divergence(p, uniform_density_on(p))
        bhat = bhattacharyya_distance(p, q_gauss)
        try:
            kl_gauss = kl_divergence(p, q_gauss)
        except SupportMismatch:
            kl_gauss = None
        return [snr_db, kl_uniform, bhat, kl_gauss]

    if len(snrs) == 1:
        rows = [cell(snrs[0])]
    else:
        half = (len(snrs) + 1) // 2
        head, tail = on_two_threads(lambda: list(map(cell, snrs[:half])),
                                    lambda: list(map(cell, snrs[half:])))
        rows = head + tail
    _write_table(
        o, "divergence",
        ["snr_db", "kl_to_uniform", "bhat_to_gauss", "kl_to_gauss_or_NA"],
        rows, {"grid-sha256": _grid_hash(o, "snr_db", "sigma_p_deg", "n")},
        o.out,
    )
    return 0


@_command("efficiency", "CRLB efficiency across record lengths",
          **_SIGNAL, snr_db=_Opt(_cast_float),
          sigma_p_deg=_Opt(_cast_float, "0"), n=_Opt(_cast_int_list),
          **_OUTPUT)
def _cmd_efficiency(o) -> int:
    rows = []
    for n in sorted(o.n):
        params = _params_from(o, o.snr_db, o.sigma_p_deg, n)
        report = error_report(theoretical_moments(params))
        rows.append([
            o.snr_db, o.sigma_p_deg, n,
            math.degrees(report.rmse_analytic),
            report.crlb * math.degrees(1.0) ** 2,
            report.efficiency,
        ])
    _write_table(
        o, "efficiency",
        ["snr_db", "sigma_p_deg", "n", "rmse_analytic_deg", "crlb_deg2",
         "efficiency"],
        rows, {"grid-sha256": _grid_hash(o, "snr_db", "sigma_p_deg", "n")},
        o.out,
    )
    return 0


@_command("normality", "normality/independence battery on the bin statistic",
          **_SIGNAL, snr_db=_Opt(_cast_float_list),
          sigma_p_deg=_Opt(_cast_float_list, "0"),
          n=_Opt(_cast_int_list, "20"), seed=_Opt(_cast_int, "0"),
          reps=_Opt(_cast_int, "10"), hz_draws=_Opt(_cast_int, "2000"),
          hoeffding_draws=_Opt(_cast_int, "100000"),
          alpha=_Opt(_cast_float, "0.05"), **_OUTPUT)
def _cmd_normality(o) -> int:
    grid_points = sorted(product(o.snr_db, o.sigma_p_deg, o.n))
    params_list = [_params_from(o, *point) for point in grid_points]
    reports = run_convergence_battery(
        params_list, o.seed, repetitions=o.reps, hz_draws=o.hz_draws,
        hoeffding_draws=o.hoeffding_draws, alpha=o.alpha,
    )
    rows = []
    for (snr_db, sigma_p, n), rep in zip(grid_points, reports):
        rows.append([
            snr_db, sigma_p, n,
            rep.hz_statistic,
            ";".join(repr(float(p)) for p in rep.hz_p_values),
            ";".join(repr(float(p)) for p in rep.hz_p_adjusted),
            rep.fisher_statistic,
            rep.fisher_p_value,
            rep.hoeffding_statistic,
            rep.verdict_normality,
            rep.failure if rep.failure else "",
        ])
    _write_table(
        o, "normality",
        ["snr_db", "sigma_p_deg", "n", "hz_statistic", "hz_p_values",
         "hz_p_adjusted", "fisher_statistic", "fisher_p_value",
         "hoeffding_d", "verdict_normality", "failure"],
        rows, {"seed": o.seed, "grid-sha256": _grid_hash(
            o, "snr_db", "sigma_p_deg", "n", "reps", "hz_draws",
            "hoeffding_draws")},
        o.out,
    )
    return 0


# --- parser ----------------------------------------------------------------------

def _help(key: str, opt: _Opt) -> str:
    text = _HELP[key]
    if opt.cast in (_cast_float_list, _cast_int_list):
        text += "; comma-separated list"
    if opt.default is _REQUIRED:
        return text + " (required)"
    if isinstance(opt.default, str):
        return f"{text} (default {opt.default})"
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syncphase",
                     description="Phase extraction from a synchronously "
                                 "sampled sinusoid: analytics and Monte-Carlo.")
    parser.add_argument("--version", action="version",
                        version=f"syncphase {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_text, _, table) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="JSON object of option values by "
                         "key: snr_db for --snr-db, in_path for --in, "
                         "json_output for --json")
        for key, opt in table.items():
            # None marks a flag not given, so a config value can fill it
            extra = {"action": "store_true"} if opt.cast is _cast_flag else {}
            sub.add_argument(opt.flag, dest=key, default=None,
                             help=_help(key, opt), **extra)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    if not args.command:
        _PARSER.print_usage(sys.stderr)
        return 1
    config = {}
    if args.config:
        try:
            with open(args.config) as fp:
                config = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"syncphase: bad config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print(f"syncphase: config {args.config} must be a JSON object",
                  file=sys.stderr)
            return 2
    _, func, table = _COMMANDS[args.command]
    try:
        return func(_resolve(table, args, config))
    except SyncPhaseError as exc:
        print(f"syncphase: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    except ValueError as exc:
        print(f"syncphase: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        # an input too large for a float or for memory is a validation error
        kind = "out of memory" if isinstance(exc, MemoryError) else "overflow"
        print(f"syncphase: {kind}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # --in and --config are read under their own handlers, so an OSError
        # here comes from writing the result
        print(f"syncphase: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
