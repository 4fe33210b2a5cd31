"""Command-line front end.

Conventions:
  * angles and angular spreads cross this boundary in degrees; everything
    internal is radians;
  * SNR flags take dB values, with the token ``inf`` meaning a noiseless
    record;
  * outputs are CSV with ``#`` provenance comments (tool version, command,
    seed, grid hash) and are byte-deterministic for identical invocations;
    ``--json`` emits the same rows as a JSON document instead;
  * a JSON config file (``--config``) can supply any long option; explicit
    command-line flags win over config values;
  * exit codes: 0 success, 1 usage, 2 validation, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import re
import sys
from itertools import product
from typing import Any, Dict, List, Optional, Sequence

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
    classify_regime,
    crlb,
    efficiency,
    pdf_value,
    rmse_floor_approx,
    rmse_linear_approx,
    rmse_polar,
)
from .signal_model import (
    SignalRealization,
    generate,
    make_params,
    read_samples_csv,
    sigma_x_for_snr,
    write_samples_csv,
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

def _cast_float(value) -> float:
    if isinstance(value, str) and value.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(value)


def _cast_int(value) -> int:
    i = int(str(value), 10) if isinstance(value, str) else int(value)
    return i


def _cast_float_list(value) -> List[float]:
    if isinstance(value, (list, tuple)):
        return [_cast_float(v) for v in value]
    return [_cast_float(tok) for tok in str(value).split(",") if tok.strip() != ""]


def _cast_int_list(value) -> List[int]:
    if isinstance(value, (list, tuple)):
        return [_cast_int(v) for v in value]
    return [_cast_int(tok) for tok in str(value).split(",") if tok.strip() != ""]


def _resolve(args: argparse.Namespace, key: str, cast, default=_REQUIRED):
    value = getattr(args, key, None)
    if value is None:
        value = getattr(args, "_config_data", {}).get(key)
    if value is None:
        if default is _REQUIRED:
            raise OutOfRange(f"missing required option --{key.replace('_', '-')}")
        return default
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise OutOfRange(
            f"bad value for --{key.replace('_', '-')}: {value!r}"
        ) from exc


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _grid_hash(grid: Dict[str, Any]) -> str:
    canon = json.dumps(grid, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_table(
    args: argparse.Namespace,
    command: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    provenance: Dict[str, Any],
    out_path: Optional[str],
) -> None:
    meta = {"tool": f"syncphase {__version__}", "command": command, **provenance}
    as_json = bool(getattr(args, "json_output", False))
    buffer = io.StringIO()
    if as_json:
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
        for row in rows:
            buffer.write(",".join(_fmt(v) for v in row) + "\n")
    text = buffer.getvalue()
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _params_from(args, *, snr_db, sigma_p_deg, n, phi_deg=0.0):
    amplitude = _resolve(args, "amplitude", _cast_float, 1.0)
    f0 = _resolve(args, "f0", str, "1.0")
    fs = _resolve(args, "fs", str, "10.0")
    snr = math.inf if math.isinf(snr_db) else 10.0 ** (snr_db / 10.0)
    return make_params(
        amplitude,
        f0,
        fs,
        phase=math.radians(phi_deg),
        sigma_additive=sigma_x_for_snr(amplitude, snr),
        sigma_phase=math.radians(sigma_p_deg),
        n_samples=n,
    )


# --- commands -------------------------------------------------------------------

def _cmd_gen(args) -> int:
    snr_db = _resolve(args, "snr_db", _cast_float, math.inf)
    sigma_p = _resolve(args, "sigma_p_deg", _cast_float, 0.0)
    phi = _resolve(args, "phi_deg", _cast_float, 0.0)
    n = _resolve(args, "n", _cast_int)
    seed = _resolve(args, "seed", _cast_int, 0)
    params = _params_from(args, snr_db=snr_db, sigma_p_deg=sigma_p, n=n, phi_deg=phi)
    realization = generate(params, seed)
    comments = [
        f"tool: syncphase {__version__}",
        "command: gen",
        f"seed: {seed}",
        f"f0: {params.f0!r}",
        f"fs: {params.fs!r}",
        f"snr_db: {_fmt(snr_db)}",
        f"sigma_p_deg: {sigma_p!r}",
        f"phi_deg: {phi!r}",
    ]
    out_path = _resolve(args, "out", str, None)
    buffer = io.StringIO()
    write_samples_csv(buffer, realization.samples, comments)
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    return 0


def _cmd_estimate(args) -> int:
    in_path = _resolve(args, "in_path", str, None)
    if in_path is None:
        raise OutOfRange("missing required option --in")
    try:
        with open(in_path) as fp:
            samples = read_samples_csv(fp)
    except OSError as exc:
        raise OutOfRange(f"cannot read {in_path}: {exc}") from exc
    except (EmptyInput, OutOfRange) as exc:
        raise type(exc)(f"{in_path}: {exc}") from exc
    params = _params_from(
        args, snr_db=math.inf, sigma_p_deg=0.0, n=samples.shape[0]
    )
    realization = SignalRealization(samples=samples, params=params, seed=0)
    result = estimate_phase(realization)
    rows = [[
        math.degrees(result.phase_estimate),
        result.phase_estimate,
        result.d_reduced.real,
        result.d_reduced.imag,
    ]]
    _write_table(
        args,
        "estimate",
        ["phase_deg", "phase_rad", "d_re", "d_im"],
        rows,
        {"input": in_path},
        _resolve(args, "out", str, None),
    )
    return 0


def _sorted_grid(snr_list, sigma_list, n_list):
    return sorted(product(snr_list, sigma_list, n_list))


def _cmd_rmse(args) -> int:
    snr_list = _resolve(args, "snr_db", _cast_float_list, [0.0])
    sigma_list = _resolve(args, "sigma_p_deg", _cast_float_list, [0.0])
    n_list = _resolve(args, "n", _cast_int_list)
    grid = {"snr_db": snr_list, "sigma_p_deg": sigma_list, "n": n_list}
    columns = [
        "snr_db", "sigma_p_deg", "n", "rmse_analytic_deg",
        "rmse_linear_approx_deg", "rmse_floor_deg", "crlb_deg2",
        "efficiency", "regime", "diagnostics",
    ]
    rows = []
    for snr_db, sigma_p, n in _sorted_grid(snr_list, sigma_list, n_list):
        params = _params_from(args, snr_db=snr_db, sigma_p_deg=sigma_p, n=n)
        moments = theoretical_moments(params)
        linear = rmse_linear_approx(n, moments.snr)
        floor = rmse_floor_approx(n, moments.beta_p)
        bound = crlb(moments)
        diagnostics = ""
        one_minus_b2 = (1 - moments.beta_p) * (1 + moments.beta_p)
        if (
            params.sigma_phase > 0
            and not math.isinf(moments.snr)
            and one_minus_b2 < 100.0 / moments.snr
        ):
            generic = rmse_floor_approx(n, moments.beta_p, moments.snr)
            diagnostics = f"floor_generic_deg={math.degrees(generic)!r}"
        try:
            rmse = rmse_polar(PolarPdf.from_moments(moments))
        except SyncPhaseError as exc:
            rows.append([
                snr_db, sigma_p, n, None, math.degrees(linear),
                math.degrees(floor), None, None, None,
                f"{type(exc).__name__}: {exc}",
            ])
            continue
        regime = classify_regime(moments, rmse=rmse)
        rows.append([
            snr_db, sigma_p, n,
            math.degrees(rmse),
            math.degrees(linear),
            math.degrees(floor),
            bound * math.degrees(1.0) ** 2,
            efficiency(moments, rmse),
            regime.value,
            diagnostics,
        ])
    _write_table(
        args, "rmse", columns, rows,
        {"grid-sha256": _grid_hash(grid)},
        _resolve(args, "out", str, None),
    )
    return 0


def _cmd_pdf(args) -> int:
    snr_db = _resolve(args, "snr_db", _cast_float)
    sigma_p = _resolve(args, "sigma_p_deg", _cast_float, 0.0)
    phi = _resolve(args, "phi_deg", _cast_float, 0.0)
    n = _resolve(args, "n", _cast_int)
    start = _resolve(args, "theta_start_deg", _cast_float, -180.0)
    stop = _resolve(args, "theta_stop_deg", _cast_float, 180.0)
    points = _resolve(args, "points", _cast_int, 721)
    if points < 2:
        raise OutOfRange(f"--points must be >= 2, got {points}")
    if not stop > start:
        raise OutOfRange("--theta-stop-deg must exceed --theta-start-deg")
    params = _params_from(args, snr_db=snr_db, sigma_p_deg=sigma_p, n=n, phi_deg=phi)
    pdf = PolarPdf.from_moments(theoretical_moments(params))
    thetas = np.linspace(start, stop, points)
    values = pdf_value(pdf, np.radians(thetas))
    rows = [[float(t), float(g)] for t, g in zip(thetas, values)]
    _write_table(
        args, "pdf", ["theta_deg", "g_value"], rows,
        {"grid-sha256": _grid_hash({
            "snr_db": snr_db, "sigma_p_deg": sigma_p, "phi_deg": phi, "n": n,
            "theta": [start, stop, points],
        })},
        _resolve(args, "out", str, None),
    )
    return 0


def _cmd_mc(args) -> int:
    snr_db = _resolve(args, "snr_db", _cast_float)
    sigma_p = _resolve(args, "sigma_p_deg", _cast_float, 0.0)
    phi = _resolve(args, "phi_deg", _cast_float, 0.0)
    n = _resolve(args, "n", _cast_int)
    draws = _resolve(args, "draws", _cast_int)
    seed = _resolve(args, "seed", _cast_int, 0)
    workers = _resolve(args, "workers", _cast_int, 1)
    params = _params_from(args, snr_db=snr_db, sigma_p_deg=sigma_p, n=n, phi_deg=phi)
    report = run_mc(McConfig(params=params, n_draws=draws, master_seed=seed,
                             n_workers_hint=workers))
    provenance = {"seed": seed, "grid-sha256": _grid_hash({
        "snr_db": snr_db, "sigma_p_deg": sigma_p, "phi_deg": phi,
        "n": n, "draws": draws,
    })}
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
        args, "mc",
        ["n_draws", "rmse_empirical_deg", "bias_empirical_deg",
         "mean_d_re", "mean_d_im", "var_d", "mc_standard_error_deg"],
        rows, provenance, _resolve(args, "out", str, None),
    )
    hist_path = _resolve(args, "hist_out", str, None)
    if hist_path:
        centers = 0.5 * (report.hist_edges[:-1] + report.hist_edges[1:])
        hist_rows = [
            [float(np.degrees(c)), int(k)]
            for c, k in zip(centers, report.hist_counts)
        ]
        _write_table(
            args, "mc-hist", ["theta_deg", "count"], hist_rows,
            provenance, hist_path,
        )
    return 0


def _cmd_divergence(args) -> int:
    snr_list = _resolve(args, "snr_db", _cast_float_list)
    sigma_p = _resolve(args, "sigma_p_deg", _cast_float, 0.0)
    n = _resolve(args, "n", _cast_int)
    grid = {"snr_db": snr_list, "sigma_p_deg": sigma_p, "n": n}
    rows = []
    for snr_db in sorted(snr_list):
        params = _params_from(args, snr_db=snr_db, sigma_p_deg=sigma_p, n=n)
        moments = theoretical_moments(params)
        p = density_from_pdf(PolarPdf.from_moments(moments))
        q_gauss = gaussian_approximation(moments)
        kl_uniform = kl_divergence(p, uniform_density_on(p.nodes))
        bhat = bhattacharyya_distance(p, q_gauss)
        try:
            kl_gauss = kl_divergence(p, q_gauss)
        except SupportMismatch:
            kl_gauss = None
        rows.append([snr_db, kl_uniform, bhat, kl_gauss])
    _write_table(
        args, "divergence",
        ["snr_db", "kl_to_uniform", "bhat_to_gauss", "kl_to_gauss_or_NA"],
        rows, {"grid-sha256": _grid_hash(grid)},
        _resolve(args, "out", str, None),
    )
    return 0


def _cmd_efficiency(args) -> int:
    snr_db = _resolve(args, "snr_db", _cast_float)
    sigma_p = _resolve(args, "sigma_p_deg", _cast_float, 0.0)
    n_list = _resolve(args, "n", _cast_int_list)
    grid = {"snr_db": snr_db, "sigma_p_deg": sigma_p, "n": n_list}
    rows = []
    for n in sorted(n_list):
        params = _params_from(args, snr_db=snr_db, sigma_p_deg=sigma_p, n=n)
        moments = theoretical_moments(params)
        rmse = rmse_polar(PolarPdf.from_moments(moments))
        rows.append([
            snr_db, sigma_p, n,
            math.degrees(rmse),
            crlb(moments) * math.degrees(1.0) ** 2,
            efficiency(moments, rmse),
        ])
    _write_table(
        args, "efficiency",
        ["snr_db", "sigma_p_deg", "n", "rmse_analytic_deg", "crlb_deg2",
         "efficiency"],
        rows, {"grid-sha256": _grid_hash(grid)},
        _resolve(args, "out", str, None),
    )
    return 0


def _cmd_normality(args) -> int:
    snr_list = _resolve(args, "snr_db", _cast_float_list)
    sigma_list = _resolve(args, "sigma_p_deg", _cast_float_list, [0.0])
    n_list = _resolve(args, "n", _cast_int_list, [20])
    seed = _resolve(args, "seed", _cast_int, 0)
    reps = _resolve(args, "reps", _cast_int, 10)
    hz_draws = _resolve(args, "hz_draws", _cast_int, 2000)
    hoeffding_draws = _resolve(args, "hoeffding_draws", _cast_int, 100_000)
    alpha = _resolve(args, "alpha", _cast_float, 0.05)
    grid_points = _sorted_grid(snr_list, sigma_list, n_list)
    grid = {"snr_db": snr_list, "sigma_p_deg": sigma_list, "n": n_list,
            "reps": reps, "hz_draws": hz_draws,
            "hoeffding_draws": hoeffding_draws}
    params_list = [
        _params_from(args, snr_db=s, sigma_p_deg=sp, n=n)
        for s, sp, n in grid_points
    ]
    reports = run_convergence_battery(
        params_list, seed, repetitions=reps, hz_draws=hz_draws,
        hoeffding_draws=hoeffding_draws, alpha=alpha,
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
        args, "normality",
        ["snr_db", "sigma_p_deg", "n", "hz_statistic", "hz_p_values",
         "hz_p_adjusted", "fisher_statistic", "fisher_p_value",
         "hoeffding_d", "verdict_normality", "failure"],
        rows, {"seed": seed, "grid-sha256": _grid_hash(grid)},
        _resolve(args, "out", str, None),
    )
    return 0


# --- parser ----------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    table = {
        "amplitude": dict(help="tone amplitude (default 1.0)"),
        "f0": dict(help="signal frequency in Hz (default 1.0)"),
        "fs": dict(help="sampling rate in Hz (default 10.0)"),
        "snr_db": dict(help="SNR in dB; 'inf' for noiseless; lists comma-separated"),
        "sigma_p_deg": dict(help="phase-noise std in degrees; lists comma-separated"),
        "phi_deg": dict(help="true phase in degrees (default 0)"),
        "n": dict(help="record length(s); lists comma-separated"),
        "seed": dict(help="master seed (default 0)"),
        "out": dict(help="output path (default stdout)"),
    }
    for name in names:
        flag = "--" + name.replace("_", "-")
        sub.add_argument(flag, dest=name, default=None, **table[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syncphase",
                     description="Phase extraction from a synchronously "
                                 "sampled sinusoid: analytics and Monte-Carlo.")
    parser.add_argument("--version", action="version",
                        version=f"syncphase {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    def new_sub(name, help_text, func):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", dest="config", default=None,
                         help="JSON file of option defaults")
        sub.add_argument("--json", dest="json_output", action="store_true",
                         help="emit JSON instead of CSV")
        sub.set_defaults(func=func)
        return sub

    sub = new_sub("gen", "generate one noisy record as CSV", _cmd_gen)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg",
                "phi_deg", "n", "seed", "out")

    sub = new_sub("estimate", "estimate the phase of a record CSV", _cmd_estimate)
    sub.add_argument("--in", dest="in_path", default=None,
                     help="input CSV (n,sample rows)")
    _add_common(sub, "amplitude", "f0", "fs", "out")

    sub = new_sub("rmse", "analytic error sweep over a parameter grid", _cmd_rmse)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg", "n", "out")

    sub = new_sub("pdf", "tabulate the phase-estimate density", _cmd_pdf)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg",
                "phi_deg", "n", "out")
    sub.add_argument("--theta-start-deg", dest="theta_start_deg", default=None)
    sub.add_argument("--theta-stop-deg", dest="theta_stop_deg", default=None)
    sub.add_argument("--points", dest="points", default=None,
                     help="number of tabulation points (default 721)")

    sub = new_sub("mc", "Monte-Carlo estimate of the error statistics", _cmd_mc)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg",
                "phi_deg", "n", "seed", "out")
    sub.add_argument("--draws", dest="draws", default=None,
                     help="number of Monte-Carlo draws")
    sub.add_argument("--workers", dest="workers", default=None,
                     help="worker hint (results never depend on it)")
    sub.add_argument("--hist-out", dest="hist_out", default=None,
                     help="also write the 720-bin estimate histogram here")

    sub = new_sub("divergence", "divergences between the exact density, "
                                "uniform, and Gaussian approximations",
                  _cmd_divergence)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg", "n", "out")

    sub = new_sub("efficiency", "CRLB efficiency across record lengths",
                  _cmd_efficiency)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg", "n", "out")

    sub = new_sub("normality", "normality/independence battery on the bin "
                               "statistic", _cmd_normality)
    _add_common(sub, "amplitude", "f0", "fs", "snr_db", "sigma_p_deg", "n",
                "seed", "out")
    sub.add_argument("--reps", dest="reps", default=None,
                     help="normality-test repetitions (default 10)")
    sub.add_argument("--hz-draws", dest="hz_draws", default=None,
                     help="draws per repetition (default 2000)")
    sub.add_argument("--hoeffding-draws", dest="hoeffding_draws", default=None,
                     help="draws for the independence statistic (default 100000)")
    sub.add_argument("--alpha", dest="alpha", default=None,
                     help="significance level (default 0.05)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fp:
                data = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"syncphase: bad config {config_path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(data, dict):
            print(f"syncphase: config {config_path} must be a JSON object",
                  file=sys.stderr)
            return 2
        args._config_data = data
    else:
        args._config_data = {}
    try:
        return args.func(args)
    except SyncPhaseError as exc:
        print(f"syncphase: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3
    except ValueError as exc:
        print(f"syncphase: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # --in and --config are read under their own handlers, so an OSError
        # here comes from writing the result
        print(f"syncphase: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
