"""Output checks for benchmark ops.  They run outside the timed region.

Each check reads the files an op wrote and returns ``None`` when they are
right, or a one-line reason when they are not.  The reference data they
compare against (``data/reference.json``) was recorded by
``make_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "data", "reference.json")

MC_Z_LIMIT = 5.0          # |rmse_mc - rmse_polar| in MC standard errors
TABLE_REL_TOL = 1e-9      # analytic cells against the recorded table
TABLE_ABS_TOL = 1e-15     # ... for cells whose recorded value is ~0
ORACLE_REL_TOL = 1e-6     # rmse_polar against the Cartesian oracle
HIST_BINS = 720


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fp:
        return json.load(fp)


def digest(paths: Sequence[str]) -> str:
    """SHA-256 over the bytes of the files, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def read_table(path: str) -> Tuple[Dict[str, str], List[str], List[List[str]]]:
    """Split a syncphase CSV into its ``# key: value`` header, columns, rows."""
    meta: Dict[str, str] = {}
    with open(path) as fp:
        lines = fp.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    if not body:
        raise ValueError(f"{os.path.basename(path)}: no column header")
    return meta, body[0].split(","), [line.split(",") for line in body[1:]]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _close(got: str, want: str) -> bool:
    """Numeric cells within the table tolerance; other cells equal."""
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(a, b, rel_tol=TABLE_REL_TOL, abs_tol=TABLE_ABS_TOL)


def _diag_close(got: str, want: str) -> bool:
    # rmse diagnostics read "floor_generic_deg=<float>" or are empty
    g_key, _, g_val = got.partition("=")
    w_key, _, w_val = want.partition("=")
    return g_key == w_key and _close(g_val, w_val)


def check_mc(paths: Sequence[str], draws: int, rmse_polar_deg: float
             ) -> Tuple[Optional[str], float]:
    """The mc table (and histogram, when written).  Returns (reason, z)."""
    _, columns, rows = read_table(paths[0])
    if len(rows) != 1 or len(rows[0]) != len(columns):
        return "mc: expected one full row", math.nan
    row = dict(zip(columns, rows[0]))
    if not all(_finite(v) for v in rows[0]):
        return f"mc: non-finite field in {rows[0]}", math.nan
    if int(row["n_draws"]) != draws:
        return f"mc: n_draws {row['n_draws']} != {draws}", math.nan
    se = float(row["mc_standard_error_deg"])
    gap = abs(float(row["rmse_empirical_deg"]) - rmse_polar_deg)
    z = gap / se if se > 0 else math.inf
    if not z <= MC_Z_LIMIT:
        return f"mc: rmse off by {z:.2f} MC standard errors", z
    if len(paths) > 1:
        _, columns, rows = read_table(paths[1])
        if columns != ["theta_deg", "count"] or len(rows) != HIST_BINS:
            return "mc-hist: expected 720 theta_deg,count rows", z
        if not all(_finite(t) for t, _ in rows):
            return "mc-hist: non-finite bin centre", z
        total = sum(int(c) for _, c in rows)
        if total != draws:
            return f"mc-hist: counts sum to {total}, not {draws}", z
    return None, z


def check_battery(paths: Sequence[str], points: int) -> Optional[str]:
    _, columns, rows = read_table(paths[0])
    if len(rows) != points:
        return f"normality: {len(rows)} rows, expected {points}"
    for cells in rows:
        row = dict(zip(columns, cells))
        if len(cells) != len(columns) or row["failure"] != "":
            return f"normality: failed point {cells}"
        p_values = (row["hz_p_values"].split(";")
                    + row["hz_p_adjusted"].split(";")
                    + [row["fisher_p_value"]])
        if not all(_finite(p) and 0.0 <= float(p) <= 1.0 for p in p_values):
            return f"normality: p-value outside [0, 1] in {cells}"
        for key in ("hz_statistic", "fisher_statistic", "hoeffding_d"):
            if not _finite(row[key]):
                return f"normality: non-finite {key}"
    return None


def cell_key(*values) -> str:
    """Reference-table key: snr and sigma as floats, n as an int."""
    snr, sigma, n = values
    return f"{float(snr)!r},{float(sigma)!r},{int(n)}"


def check_analytic(paths: Sequence[str], kind: str, items: int,
                   reference: dict, sigma: str = "", n: str = ""
                   ) -> Optional[str]:
    """rmse / divergence / efficiency rows against the recorded table.

    Divergence rows carry only the SNR; the op's sigma and N complete the
    key.
    """
    _, columns, rows = read_table(paths[0])
    if len(rows) != items:
        return f"{kind}: {len(rows)} rows, expected {items}"
    table = reference[kind]
    for cells in rows:
        if kind == "divergence":
            key = cell_key(cells[0], sigma, n)
            got, want = cells[1:], table.get(key)
        else:
            key = cell_key(*cells[:3])
            got, want = cells[3:], table.get(key)
        if want is None:
            return f"{kind}: cell {key} is not in the reference table"
        if len(got) != len(want):
            return f"{kind}: cell {key} has {len(got)} values"
        for column, g, w in zip(columns[len(cells) - len(got):], got, want):
            ok = _diag_close(g, w) if column == "diagnostics" else _close(g, w)
            if not ok:
                return f"{kind}: cell {key} {column} {g} != recorded {w}"
    return None


def cli_moments(snr_db: float, sigma_p_deg: float, n: int):
    """Theoretical moments of a cell, with the parameters the CLI builds."""
    from syncphase import make_params, sigma_x_for_snr, theoretical_moments

    return theoretical_moments(make_params(
        1.0, "1.0", "10.0",
        sigma_additive=sigma_x_for_snr(1.0, 10.0 ** (snr_db / 10.0)),
        sigma_phase=math.radians(sigma_p_deg), n_samples=n))


def oracle_gap(snr_db: float, sigma_p_deg: float, n: int) -> float:
    """Relative gap between rmse_polar and the Cartesian oracle at a cell."""
    from syncphase import PolarPdf, rmse_cartesian_oracle, rmse_polar

    moments = cli_moments(snr_db, sigma_p_deg, n)
    polar = rmse_polar(PolarPdf.from_moments(moments))
    return abs(polar - rmse_cartesian_oracle(moments)) / polar
