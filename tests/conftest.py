"""Fixtures shared across test modules."""
import math

import pytest

from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import draw_chunks, reduced_dft_draws

# The Monte-Carlo cells that two slow tests both draw: N = 100, k = 1,
# phi = 0, 0 dB, sigma_p of 0 and 2 degrees, seed 12, draws 0 .. 10^6 - 1.
SHARED_SIGMA_P_DEG = (0.0, 2.0)
SHARED_SEED = 12
SHARED_DRAWS = 10**6


@pytest.fixture(scope="session")
def shared_draws():
    """``reduced_dft_draws`` with the shared cells computed once, in the
    ``draw_chunks`` schedule both tests walk (40 000 draws, 16 MB per cell
    in all).  A call that matches a cached chunk's (params, seed,
    first_draw, n_draws) exactly gets that read-only array; any other call
    computes its draws."""
    cache = {}
    for sigma_p_deg in SHARED_SIGMA_P_DEG:
        params = make_params(amplitude=1.0, f0=1.0, fs=100.0, phase=0.0,
                             sigma_additive=sigma_x_for_snr(1.0, 1.0),
                             sigma_phase=math.radians(sigma_p_deg),
                             n_samples=100)
        for start, stop in draw_chunks(params.n_samples, SHARED_DRAWS):
            chunk = reduced_dft_draws(params, SHARED_SEED, start, stop - start)
            chunk.setflags(write=False)
            cache[params, SHARED_SEED, start, stop - start] = chunk

    def draws(params, master_seed, first_draw, n_draws):
        key = (params, master_seed, first_draw, n_draws)
        if key in cache:
            return cache[key]
        return reduced_dft_draws(params, master_seed, first_draw, n_draws)

    return draws
