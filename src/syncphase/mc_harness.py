"""Monte-Carlo harness and the statistical validation battery.

Determinism contract: every aggregate is a pure function of
(params, n_draws, master_seed).  Draw ``d`` always consumes the substreams
keyed by ``(master_seed, d, channel)``.  A batch is computed in the chunks
of ``draw_chunks``, each built by ``signal_model.RecordUnits.build`` (a large
chunk pipelined across two threads); each draw's statistic depends on its
own substreams alone and lands at its own index, so that is layout only.
``run_mc`` walks the same ``draw_chunks``, one partial per chunk in a fixed
order, and combines the chunk partials by pairwise summation.
Henze-Zirkler's pair sum may run the two top-level nodes of its pairwise
summation on two threads; each node adds its terms in np.sum's own order
and the two are added as np.sum adds them, so that split does not change a
bit either.  Results are therefore bit-identical however the work is
scheduled, on one NumPy build and CPU feature set: the errors pass through
``np.arctan2`` and Henze-Zirkler through ``np.exp``, whose last bits NumPy
takes from an AVX-512 kernel where the CPU has one.  The draws themselves
are the same bits with or without those kernels (see ``rng``).

The battery couples a multivariate-normality test (Henze-Zirkler) applied to
repeated batches of the bin statistic, Benjamini-Hochberg adjustment across
repetitions, Fisher combination of the adjusted p-values, and Hoeffding's D
independence statistic between the real and imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.special import chdtrc, ndtr

from .errors import (
    EmptyInput,
    LengthMismatch,
    OutOfRange,
    SingularCovariance,
    TooFewPoints,
)
from .phase_pdf import wrap_angle
from .signal_model import SignalParams, on_two_threads
from .spectral_estimator import (draw_chunks, principal_phase,
                                  reduced_dft_draws)

HIST_BINS = 720


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


def run_mc(config: McConfig) -> McReport:
    """Estimate the phase on n_draws independent records and aggregate."""
    if config.n_draws < 1:
        raise OutOfRange(f"n_draws must be >= 1, got {config.n_draws}")
    params = config.params
    edges = np.linspace(-math.pi, math.pi, HIST_BINS + 1)

    # per chunk: [sum e, sum e^2, sum e^4, Re sum d, Im sum d, sum |d|^2]
    partials: List[np.ndarray] = []
    counts = np.zeros(HIST_BINS, dtype=np.int64)

    # one reduced_dft_draws call per chunk: the chunk partials fix the bits
    for start, stop in draw_chunks(params.n_samples, config.n_draws):
        d = reduced_dft_draws(params, config.master_seed, start, stop - start)
        phi_hat = principal_phase(d)
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


# Pair terms per leaf of _hz_pair_sum: a node of NumPy's pairwise-sum tree
# that is built and summed in one reused buffer.  Measured on 2 cores (NumPy
# 2.4) at n = 2000, medians of 601 interleaved runs, one thread and two:
# 2^15 terms 20.8 and 14.8 ms, 2^16 20.6 and 12.7 ms, 2^17 21.8 and
# 12.9 ms.  Summing the whole (n, n) matrix at once took 38-52 ms.
_HZ_TILE = 2**16
# NumPy's pairwise_sum adds up to this many terms in one unrolled loop and
# splits only longer runs, so no leaf may be shorter.
_NUMPY_PAIRWISE_BLOCK = 128
# Smallest pair count (n^2) that _hz_pair_sum splits across two threads.
# Measured on 2 cores, the split's speed against one thread over 601
# interleaved runs, median (quartiles) and share of runs won, at n = 300,
# 500, 700, 1000, 1400 and 2000: 1.01x (0.79-1.17) 52%, 1.25x (0.99-1.41)
# 74%, 1.37x (1.07-1.55) 81%, 1.50x (1.21-1.68) 86%, 1.57x (1.28-1.74) 88%,
# 1.60x (1.34-1.76) 91%.  n = 700 is the smallest measured size whose lower
# quartile gains.
_HZ_SPLIT_MIN_PAIRS = 490_000


def _pairwise_split(m: int) -> int:
    # where NumPy's pairwise_sum splits a run of m > 128 terms
    left = m // 2
    return left - left % 8


def _hz_pair_node(half: np.ndarray, d_diag: np.ndarray, scale: float,
                  start: int, count: int, tile: int,
                  scratch: Optional[Tuple[np.ndarray, np.ndarray]] = None
                  ) -> float:
    """Sum of the pair terms at flat indices [start, start + count) of the
    (n, n) pair matrix, added in the order np.sum adds that node."""
    n = d_diag.shape[0]
    if scratch is None:  # one pair of leaf buffers per thread
        size = min(count, tile)
        scratch = (np.empty(size + 2 * n), np.empty(size))
    if count > tile:
        left = _pairwise_split(count)
        return (_hz_pair_node(half, d_diag, scale, start, left, tile,
                              scratch)
                + _hz_pair_node(half, d_diag, scale, start + left,
                                count - left, tile, scratch))
    rows, twice = scratch
    stop = start + count
    first, col = divmod(start, n)
    last = (stop - 1) // n
    # d_i + d_j over the whole rows the leaf spans; the leaf starts at col
    np.add(d_diag[first:last + 1, None], d_diag,
           out=rows[:(last - first + 1) * n].reshape(-1, n))
    buf = rows[col:col + count]
    np.multiply(half.reshape(-1)[start:stop], 2.0, out=twice[:count])
    buf -= twice[:count]
    buf *= scale
    np.exp(buf, out=buf)
    return float(np.sum(buf))


def _hz_pair_sum(half: np.ndarray, d_diag: np.ndarray, b2: float) -> float:
    """Sum over all pairs (i, j) of exp(-b2/2 * squared Mahalanobis distance),
    with the bits of the allocating expression
    np.sum(np.exp(-0.5 * b2 * (d_i + d_j - 2.0 * half_ij))).

    That expression builds an (n, n) matrix and np.sum adds its n^2 terms
    with NumPy's pairwise summation, one recursion over the flat index
    range whose split points depend only on the length.  Here the same
    recursion runs in Python down to leaves of about ``_HZ_TILE`` terms:
    each leaf builds its terms in a small reused buffer, with the same
    element-wise operations in the same order, and np.sum of that buffer
    adds them exactly as the whole-matrix sum adds that subtree.  So the
    result has the same bits, while the only (n, n) array is ``half``,
    which is read and left unmodified.  This leans on NumPy's pairwise
    order (the split at m // 2 rounded down to a multiple of 8, and a plain
    loop at 128 terms or fewer); the bit-exactness tests fail loudly if a
    NumPy upgrade changes it.

    From ``_HZ_SPLIT_MIN_PAIRS`` pairs on, the two top-level nodes run
    through :func:`on_two_threads` (on this thread and a worker, or one
    after the other on this thread when the process may use one CPU), and
    are added as NumPy adds them.

    ``half`` stays the whole product centered @ inv @ centered.T, built
    once by the caller.  Row blocks of that product, computed apart, need
    not have its bits, since BLAS picks its kernel by shape: with OpenBLAS
    0.3.31 at n = 2000, every one-row block differed from its row of the
    whole product (126 of 126).
    """
    n = d_diag.shape[0]
    total = n * n
    tile = max(_HZ_TILE, _NUMPY_PAIRWISE_BLOCK)
    scale = -0.5 * b2
    if total < _HZ_SPLIT_MIN_PAIRS:
        return _hz_pair_node(half, d_diag, scale, 0, total, tile)
    left = _pairwise_split(total)
    head, tail = on_two_threads(
        partial(_hz_pair_node, half, d_diag, scale, 0, left, tile),
        partial(_hz_pair_node, half, d_diag, scale, left, total - left, tile))
    return head + tail


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
    p_value = _lognorm_sf(statistic, math.sqrt(log_sigma2), log_scale)
    return HzResult(statistic=statistic, p_value=p_value)


def _lognorm_sf(statistic: float, s: float, scale: float) -> float:
    """The lognormal survival function, bit for bit as
    ``scipy.stats.lognorm.sf(statistic, s, scale=scale)``: the standard
    normal tail at log(x)/s with x = statistic/scale, and 1 for x <= 0."""
    x = statistic / scale
    if x <= 0.0:
        return 1.0
    return float(ndtr(-(np.log(x) / s)))


# --- Hoeffding's D ------------------------------------------------------------

def _midranks(v: np.ndarray) -> np.ndarray:
    """Midranks of v, bit for bit as ``scipy.stats.rankdata(v, "average")``:
    a run of ties over sorted positions [lo, hi) gets (lo + 1 + hi) / 2."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    hi = np.cumsum(counts)
    return 0.5 * ((2 * hi - counts)[inverse] + 1)


def _run_sizes(v: np.ndarray) -> np.ndarray:
    """The length of each entry's run of equal values in sorted v."""
    edge = np.flatnonzero(np.r_[True, v[1:] != v[:-1], True])
    size = np.diff(edge)
    return np.repeat(size, size)


def _bivariate_ranks(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Hoeffding's Q from the midranks r, s and the concordance K (see
    :func:`hoeffding_d`), counted exactly in O(n log n).

    x and y enter through r and s: floor(r) - 1 is an integer code with the
    order and ties of x (made dense, a), floor(s) - 1 one of y (b).  The
    points are sorted by (b, a), so y ties are broken by x; each pair tied
    in y alone then counts +1 in K, which is taken off at the start.  A pair
    with a_i != a_j has one highest differing bit L; there both points lie
    in the group a >> (L+1), the larger code in its upper half.  The levels
    run from the top bit down, each group in (b, a) order: at the top bit
    all points are one group, and each level's order is the one before with
    every group stably split, lower half first.  A running count C of
    upper-half points gives each point the other half's points of its group
    before and after it, and its place after the split.  An upper point
    adds (before - after) to K, a lower point (after - before).  Counts stay
    below 4n, so they are held as int32 below 2^29 points.
    """
    n = r.shape[0]
    idx = np.int32 if n < 2**29 else np.int64
    a = (r - 1.0).astype(idx)
    seen = np.zeros(n, dtype=bool)
    seen[a] = True
    a = np.cumsum(seen, dtype=idx)[a] - 1
    bits = int(a.max()).bit_length()
    below = np.zeros((1 << bits) + 1, dtype=idx)  # points with a code < j
    np.cumsum(np.bincount(a, minlength=1 << bits), out=below[1:])

    key = (s - 1.0).astype(np.int64) * n + a
    order = np.argsort(key)
    key = key[order]
    # K in the current order, less each point's pairs tied in y alone
    k = _run_sizes(key).astype(idx)
    key //= n
    k -= _run_sizes(key)
    del key
    code = a[order]
    order = order.astype(idx)
    del a
    at = np.arange(n, dtype=idx)
    c = np.zeros(n + 1, dtype=idx)
    before = c[:-1]
    spare = np.empty(n, dtype=idx)
    # each level drops its arrays once spent, so at most a handful of
    # n-sized arrays are alive at a time
    for level in reversed(range(bits)):
        span = 2 << level
        g_lo = below[code & -span]
        g_hi = below[(code | (span - 1)) + 1]
        upper = (code >> level) & 1
        np.cumsum(upper, out=c[1:])
        c_lo = c[g_lo]
        c_hi = c[g_hi]
        k += c_lo + c_hi - 2 * before + upper * (2 * at - g_lo - g_hi)
        del g_lo
        # the stable split: a lower point moves down past the upper points
        # before it, an upper one up past the lower points after it
        place = at - before + c_lo
        place += upper * (g_hi - c_hi + before - place)
        del g_hi, upper, c_lo, c_hi
        place = place.astype(np.intp)
        spare[place] = order
        order, spare = spare, order
        spare[place] = code
        code, spare = spare, code
        spare[place] = k
        k, spare = spare, k
        del place
    q = np.empty(n, dtype=idx)
    q[order] = k
    return 1.0 + (q + 2.0 * (r + s) - n - 3) / 4.0


def hoeffding_d(x: np.ndarray, y: np.ndarray) -> float:
    """Hoeffding's D statistic of dependence, scaled by 30 so the comonotone
    large-sample limit is 1.  Supports ties through midranks.

    The bivariate ranks are Q_i = 1 + sum_{j != i} u(x_i - x_j) u(y_i - y_j)
    with u = (1, 1/2, 0) for (positive, zero, negative) arguments.  As
    u = (1 + sgn)/2 and the midrank is r_i = (n + 1 + sum_j sgn(x_i - x_j))/2,
    Q_i = 1 + (K_i + 2(r_i + s_i) - n - 3)/4 for any ties, with the
    concordance K_i = sum_j sgn(x_i - x_j) sgn(y_i - y_j).  Every term is a
    multiple of 1/4 below 2^53, so Q is exact (:func:`_bivariate_ranks`).
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

    r = _midranks(x)
    s = _midranks(y)
    q = _bivariate_ranks(r, s)

    d1 = float(np.sum((q - 1.0) * (q - 2.0)))
    d2 = float(np.sum((r - 1.0) * (r - 2.0) * (s - 1.0) * (s - 2.0)))
    d3 = float(np.sum((r - 2.0) * (s - 2.0) * (q - 1.0)))
    numerator = 30.0 * ((n - 2) * (n - 3) * d1 + d2 - 2.0 * (n - 2) * d3)
    denominator = float(n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
    return numerator / denominator


# --- p-value machinery ---------------------------------------------------------

def _p_values(p_values: Sequence[float]) -> np.ndarray:
    """p_values as a non-empty 1-D float array with every entry in [0, 1]."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise OutOfRange("p-values must be 1-D")
    if p.shape[0] == 0:
        raise EmptyInput("no p-values")
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise OutOfRange("p-values must lie in [0, 1]")
    return p


def benjamini_hochberg(p_values: Sequence[float]) -> np.ndarray:
    """Step-up adjusted p-values (monotone, capped at 1)."""
    p = _p_values(p_values)
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
    p = _p_values(p_values)
    with np.errstate(divide="ignore"):
        statistic = float(-2.0 * np.sum(np.log(p)))
    # chi2.sf(statistic, 2k) with the same bits
    p_value = (float(chdtrc(2 * p.shape[0], statistic)) if statistic > 0.0
               else 1.0)
    return statistic, p_value


# --- the battery -----------------------------------------------------------------

@dataclass(frozen=True)
class BatteryReport:
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
) -> List[BatteryReport]:
    """Run the normality/independence battery on each grid point.

    Per point: `repetitions` disjoint batches of `hz_draws` bin statistics
    are tested for bivariate normality; the raw p-values go through
    Benjamini-Hochberg and then Fisher combination; Hoeffding's D is
    computed between Re/Im on a further batch of `hoeffding_draws` draws.
    A degenerate point (e.g. noiseless input with singular covariance) is
    recorded via the `failure` field and the run continues; sizes the tests
    cannot run on raise OutOfRange before any draw.
    """
    if repetitions < 1:
        raise OutOfRange("repetitions must be >= 1")
    if hz_draws < 20:
        raise OutOfRange(f"hz_draws must be >= 20, got {hz_draws}")
    if hoeffding_draws < 5:
        raise OutOfRange(
            f"hoeffding_draws must be >= 5, got {hoeffding_draws}")
    if not (0.0 < alpha < 1.0):
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha!r}")
    reports: List[BatteryReport] = []
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
            d_ind = reduced_dft_draws(params, master_seed,
                                      repetitions * hz_draws, hoeffding_draws)
            hd = hoeffding_d(d_ind.real, d_ind.imag)
            reports.append(
                BatteryReport(
                    hz_statistic=float(np.mean(stats)),
                    hz_p_values=tuple(p_raw),
                    hz_p_adjusted=tuple(adjusted),
                    fisher_statistic=fisher_stat,
                    fisher_p_value=fisher_p,
                    hoeffding_statistic=hd,
                    verdict_normality=bool(fisher_p >= alpha),
                )
            )
        except SingularCovariance as exc:
            reports.append(
                BatteryReport(
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
