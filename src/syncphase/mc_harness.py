"""Monte-Carlo harness and the statistical validation battery.

Determinism contract: every aggregate is a pure function of
(params, n_draws, master_seed).  Draw ``d`` always consumes the substreams
keyed by ``(master_seed, d, channel)``; work is split into fixed-size chunks
(a function of N and n_draws only) and chunk partials are combined by
pairwise summation.  Within a chunk, ``reduced_dft_draws`` may compute the
two halves of the draws on two threads; each draw's statistic depends on its
own substreams alone and lands at its own index, so that split is layout
only.  The reduction of a chunk (arctan2, wrap, sums, histogram) runs on one
thread over the whole chunk, in the same order with or without the split.
Results are therefore bit-identical however the work is scheduled.

The battery couples a multivariate-normality test (Henze-Zirkler) applied to
repeated batches of the bin statistic, Benjamini-Hochberg adjustment across
repetitions, Fisher combination of the adjusted p-values, and Hoeffding's D
independence statistic between the real and imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import chi2, lognorm, rankdata

from .errors import (
    EmptyInput,
    LengthMismatch,
    OutOfRange,
    SingularCovariance,
    TooFewPoints,
)
from .phase_pdf import wrap_angle
from .signal_model import SignalParams
from .spectral_estimator import reduced_dft_draws

TWO_PI = 2.0 * math.pi

HIST_BINS = 720
# target samples per chunk; keeps peak memory flat across record lengths
_CHUNK_BUDGET = 4_000_000


@dataclass(frozen=True)
class McConfig:
    params: SignalParams
    n_draws: int
    master_seed: int


@dataclass(frozen=True)
class McReport:
    n_draws: int
    rmse_empirical: float        # sqrt(mean wrapped-squared-error), radians
    bias_empirical: float        # mean signed wrapped error, radians
    mean_d: complex              # empirical mean of the reduced statistic
    var_d: float                 # empirical total variance E|D - mean|^2
    mc_standard_error: float     # delta-method standard error of the rmse
    hist_edges: np.ndarray       # 721 edges over (-pi, pi]
    hist_counts: np.ndarray      # 720 counts of the phase estimates

    def __post_init__(self):
        self.hist_edges.setflags(write=False)
        self.hist_counts.setflags(write=False)


def _pairwise_sum(parts: Sequence):
    """Pairwise reduction of floats or of equal-shape arrays (element-wise);
    summation order depends only on len(parts)."""
    items = list(parts)
    if not items:
        return 0.0
    while len(items) > 1:
        merged = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
        items = merged
    return items[0]


def _chunk_size(n_samples: int) -> int:
    return max(1, _CHUNK_BUDGET // max(1, n_samples))


def run_mc(config: McConfig) -> McReport:
    """Estimate the phase on n_draws independent records and aggregate."""
    if config.n_draws < 1:
        raise OutOfRange(f"n_draws must be >= 1, got {config.n_draws}")
    params = config.params
    chunk = _chunk_size(params.n_samples)
    edges = np.linspace(-math.pi, math.pi, HIST_BINS + 1)

    # per chunk: [sum e, sum e^2, sum e^4, Re sum d, Im sum d, sum |d|^2]
    partials: List[np.ndarray] = []
    counts = np.zeros(HIST_BINS, dtype=np.int64)

    for start in range(0, config.n_draws, chunk):
        stop = min(start + chunk, config.n_draws)
        d = reduced_dft_draws(params, config.master_seed, start, stop - start)
        phi_hat = np.arctan2(d.imag, d.real)
        phi_hat[phi_hat == -math.pi] = math.pi
        err = np.asarray(wrap_angle(phi_hat - params.phase))
        e2 = err * err
        chunk_d = complex(np.sum(d))
        partials.append(np.array([
            np.sum(err), np.sum(e2), np.sum(e2 * e2),
            chunk_d.real, chunk_d.imag, np.sum(d.real**2 + d.imag**2),
        ]))
        counts += np.histogram(phi_hat, bins=edges)[0]

    # element-wise, so each statistic sees the additions of its own
    # scalar pairwise reduction
    n = config.n_draws
    sum_e, sum_e2, sum_e4, sum_re, sum_im, sum_d2 = \
        _pairwise_sum(partials).tolist()
    sum_d = complex(sum_re, sum_im)

    rmse = math.sqrt(max(sum_e2 / n, 0.0))
    bias = sum_e / n
    mean_d = sum_d / n
    var_d = max(sum_d2 / n - abs(mean_d) ** 2, 0.0)
    if n > 1 and rmse > 0.0:
        mse_var = max(sum_e4 - sum_e2**2 / n, 0.0) / (n - 1)
        mc_se = math.sqrt(mse_var / n) / (2.0 * rmse)
    else:
        mc_se = 0.0

    return McReport(
        n_draws=n,
        rmse_empirical=rmse,
        bias_empirical=bias,
        mean_d=mean_d,
        var_d=var_d,
        mc_standard_error=mc_se,
        hist_edges=edges,
        hist_counts=counts,
    )


# --- multivariate normality -------------------------------------------------

class HzResult(NamedTuple):
    statistic: float
    p_value: float


def _hz_pair_sum(half: np.ndarray, d_diag: np.ndarray, b2: float) -> float:
    """Sum over all pairs (i, j) of exp(-b2/2 * squared Mahalanobis distance).

    The distance d_i + d_j - 2 half_ij is built in one (n, n) buffer (half
    is overwritten), with the same operations, so the same bits, as the
    allocating expression exp(-0.5 * b2 * (d_i + d_j - 2.0 * half_ij)).
    """
    half *= 2.0
    buf = np.add.outer(d_diag, d_diag)
    buf -= half
    buf *= -0.5 * b2
    np.exp(buf, out=buf)
    return float(np.sum(buf))


def henze_zirkler(samples: np.ndarray) -> HzResult:
    """Henze-Zirkler multivariate-normality test (smooth-parameter default).

    samples: (n, p) array of observations.  The null distribution of the
    statistic is approximated lognormal with the standard moment matching.
    Raises SingularCovariance when the sample covariance is rank deficient
    and TooFewPoints below 20 observations.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise OutOfRange("samples must be a 2-D (n, p) array")
    n, p = x.shape
    if n < 20:
        raise TooFewPoints(f"need at least 20 observations, got {n}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange("samples must be finite")

    cov = np.cov(x, rowvar=False, bias=True)
    cov = np.atleast_2d(cov)
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval[0] <= 1e-12 * max(eigval[-1], 1e-300):
        raise SingularCovariance(
            f"sample covariance is rank deficient (eigenvalues {eigval})"
        )
    inv = (eigvec / eigval) @ eigvec.T

    centered = x - x.mean(axis=0)
    half = centered @ inv @ centered.T
    d_diag = np.diag(half).copy()

    beta = ((2 * p + 1) * n / 4.0) ** (1.0 / (p + 4)) / math.sqrt(2.0)
    b2 = beta * beta

    term_pair = _hz_pair_sum(half, d_diag, b2) / (n * n)
    term_single = float(np.sum(np.exp(-0.5 * b2 * d_diag / (1.0 + b2)))) / n
    statistic = n * (
        term_pair
        - 2.0 * (1.0 + b2) ** (-p / 2.0) * term_single
        + (1.0 + 2.0 * b2) ** (-p / 2.0)
    )

    # lognormal null moments
    a = 1.0 + 2.0 * b2
    wb = (1.0 + b2) * (1.0 + 3.0 * b2)
    mu = 1.0 - a ** (-p / 2.0) * (
        1.0 + p * b2 / a + p * (p + 2) * b2 * b2 / (2.0 * a * a)
    )
    si2 = (
        2.0 * (1.0 + 4.0 * b2) ** (-p / 2.0)
        + 2.0 * a ** (-p)
        * (1.0 + 2.0 * p * b2**2 / (a * a) + 3.0 * p * (p + 2) * b2**4 / (4.0 * a**4))
        - 4.0 * wb ** (-p / 2.0)
        * (1.0 + 3.0 * p * b2**2 / (2.0 * wb) + p * (p + 2) * b2**4 / (2.0 * wb * wb))
    )
    log_sigma2 = math.log((si2 + mu * mu) / (mu * mu))
    log_scale = math.sqrt(mu**4 / (si2 + mu * mu))
    p_value = float(lognorm.sf(statistic, math.sqrt(log_sigma2), scale=log_scale))
    return HzResult(statistic=statistic, p_value=p_value)


# --- Hoeffding's D ------------------------------------------------------------

def _bivariate_ranks(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q_i = 1 + sum_{j != i} u(x_i - x_j) u(y_i - y_j), u = (1, 1/2, 0) for
    (positive, zero, negative) arguments.  Fenwick-tree sweep in x order,
    O(n log n) including all tie corrections."""
    n = x.shape[0]
    y_codes = np.unique(y, return_inverse=True)[1]
    m = int(y_codes.max()) + 1
    tree = [0] * (m + 1)

    def update(i: int) -> None:
        i += 1
        while i <= m:
            tree[i] += 1
            i += i & (-i)

    def query(i: int) -> int:  # count of codes <= i
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    order = np.lexsort((y_codes, x))
    q = np.empty(n, dtype=float)
    start = 0
    xs = x[order]
    while start < n:
        stop = start
        while stop < n and xs[stop] == xs[start]:
            stop += 1
        block = order[start:stop]
        codes = y_codes[block]
        # contributions from strictly smaller x (already in the tree)
        for idx, code in zip(block.tolist(), codes.tolist()):
            c = int(code)
            below = query(c - 1) if c > 0 else 0
            equal = query(c) - below
            q[idx] = below + 0.5 * equal
        # within-block: x ties contribute 1/2 * u(y_i - y_j)
        if stop - start > 1:
            uniq, inverse, cnt = np.unique(
                codes, return_inverse=True, return_counts=True
            )
            less = np.concatenate(([0], np.cumsum(cnt)))[inverse]
            same = cnt[inverse] - 1
            q[block] += 0.5 * less + 0.25 * same
        for code in codes.tolist():
            update(int(code))
        start = stop
    return q + 1.0


def hoeffding_d(x: np.ndarray, y: np.ndarray) -> float:
    """Hoeffding's D statistic of dependence, scaled by 30 so the comonotone
    large-sample limit is 1.  Supports ties through midranks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise OutOfRange("inputs must be 1-D")
    if x.shape[0] != y.shape[0]:
        raise LengthMismatch(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    n = x.shape[0]
    if n < 5:
        raise TooFewPoints(f"need at least 5 points, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise OutOfRange("inputs must be finite")

    r = rankdata(x, method="average")
    s = rankdata(y, method="average")
    q = _bivariate_ranks(x, y)

    d1 = float(np.sum((q - 1.0) * (q - 2.0)))
    d2 = float(np.sum((r - 1.0) * (r - 2.0) * (s - 1.0) * (s - 2.0)))
    d3 = float(np.sum((r - 2.0) * (s - 2.0) * (q - 1.0)))
    numerator = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2.0 * (n - 2) * d3)
    denominator = float(n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
    return numerator / denominator


# --- p-value machinery ---------------------------------------------------------

def benjamini_hochberg(p_values: Sequence[float]) -> np.ndarray:
    """Step-up adjusted p-values (monotone, capped at 1)."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise OutOfRange("p-values must be 1-D")
    if p.shape[0] == 0:
        raise EmptyInput("no p-values")
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise OutOfRange("p-values must lie in [0, 1]")
    n = p.shape[0]
    order = np.argsort(p, kind="stable")
    scaled = p[order] * n / np.arange(1, n + 1)
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(n, dtype=float)
    out[order] = np.minimum(adjusted, 1.0)
    return out


def fisher_combine(p_values: Sequence[float]) -> Tuple[float, float]:
    """Fisher's combination: statistic -2 sum log p ~ chi^2(2k) under the
    global null.  A zero p-value drives the statistic to +inf (p-value 0)."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise OutOfRange("p-values must be 1-D")
    if p.shape[0] == 0:
        raise EmptyInput("no p-values")
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise OutOfRange("p-values must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        statistic = float(-2.0 * np.sum(np.log(p)))
    p_value = float(chi2.sf(statistic, 2 * p.shape[0]))
    return statistic, p_value


# --- the battery -----------------------------------------------------------------

@dataclass(frozen=True)
class TestBatteryReport:
    params: SignalParams
    hz_statistic: float                  # mean statistic across repetitions
    hz_p_values: Tuple[float, ...]       # raw, one per repetition
    hz_p_adjusted: Tuple[float, ...]     # Benjamini-Hochberg adjusted
    fisher_statistic: float
    fisher_p_value: float
    hoeffding_statistic: float
    verdict_normality: bool
    failure: Optional[str] = None        # set when the point degenerated


def run_convergence_battery(
    grid: Sequence[SignalParams],
    master_seed: int,
    *,
    repetitions: int = 10,
    hz_draws: int = 2000,
    hoeffding_draws: int = 100_000,
    alpha: float = 0.05,
) -> List[TestBatteryReport]:
    """Run the normality/independence battery on each grid point.

    Per point: `repetitions` disjoint batches of `hz_draws` bin statistics
    are tested for bivariate normality; the raw p-values go through
    Benjamini-Hochberg and then Fisher combination; Hoeffding's D is
    computed between Re/Im on a further batch of `hoeffding_draws` draws.
    A degenerate point (e.g. noiseless input with singular covariance) is
    recorded via the `failure` field and the run continues.
    """
    if repetitions < 1:
        raise OutOfRange("repetitions must be >= 1")
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha!r}")
    reports: List[TestBatteryReport] = []
    nan = float("nan")
    for params in grid:
        try:
            stats = []
            p_raw = []
            for rep in range(repetitions):
                d = reduced_dft_draws(
                    params, master_seed, rep * hz_draws, hz_draws
                )
                result = henze_zirkler(np.column_stack((d.real, d.imag)))
                stats.append(result.statistic)
                p_raw.append(result.p_value)
            adjusted = benjamini_hochberg(p_raw)
            fisher_stat, fisher_p = fisher_combine(adjusted)
            # run_mc's chunks bound memory; one call checks a count < 1
            first = repetitions * hz_draws
            chunk = _chunk_size(params.n_samples)
            d_ind = np.concatenate([reduced_dft_draws(
                params, master_seed, first + start,
                min(chunk, hoeffding_draws - start))
                for start in range(0, max(hoeffding_draws, 1), chunk)])
            hd = hoeffding_d(d_ind.real, d_ind.imag)
            reports.append(
                TestBatteryReport(
                    params=params,
                    hz_statistic=float(np.mean(stats)),
                    hz_p_values=tuple(p_raw),
                    hz_p_adjusted=tuple(adjusted),
                    fisher_statistic=fisher_stat,
                    fisher_p_value=fisher_p,
                    hoeffding_statistic=hd,
                    verdict_normality=bool(fisher_p >= alpha),
                )
            )
        except (SingularCovariance, TooFewPoints) as exc:
            reports.append(
                TestBatteryReport(
                    params=params,
                    hz_statistic=nan,
                    hz_p_values=(),
                    hz_p_adjusted=(),
                    fisher_statistic=nan,
                    fisher_p_value=nan,
                    hoeffding_statistic=nan,
                    verdict_normality=False,
                    failure=f"{type(exc).__name__}: {exc}",
                )
            )
    return reports
