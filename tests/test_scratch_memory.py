"""Scratch memory lives for one call (package docstring): after a kernel
fill, two-channel record batches and a divergence cell, an interpreter
holds no more traced memory than the arrays the calls returned, and after
a fill and a cell that fail, none."""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Everything is imported and every parameter built before tracing starts,
# so the traced memory still held at the end is what the calls kept.
_CALLS = """
import tracemalloc

import numpy as np

from syncphase import make_params, rng, theoretical_moments
from syncphase.divergences import divergence_row
from syncphase.phase_pdf import NARROW_SPREAD, PolarPdf
from syncphase.signal_model import noisy_records


def params(n):
    return make_params(amplitude=1.0, f0=1.0, fs=float(n), sigma_additive=0.3,
                       sigma_phase=0.1, n_samples=n)


short, long_ = params(20), params(1000)
moments = theoretical_moments(make_params(
    amplitude=1.0, f0=1.0, fs=1000.0, sigma_additive=0.01, n_samples=1000))
assert PolarPdf.from_moments(moments).spread < NARROW_SPREAD  # a window
u = np.empty((5000, 20))
tracemalloc.start()
rng.uniform_filler(12, rng.CH_PHASE, 20)(u, 0)   # kernel fills
returned = [noisy_records(short, 12, 0, 4000),   # 80k samples, pipelined
            noisy_records(long_, 12, 0, 500)]    # native fills, unit buffers
divergence_row(moments)
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(held - sum(a.nbytes for a in returned))
"""

# A fill whose output has the wrong shape, and a cell whose lobe sits on
# the seam at +-pi: both fail after their scratch is allocated.
_FAILING_CALLS = """
import math
import tracemalloc

import numpy as np

from syncphase import make_params, rng, theoretical_moments
from syncphase.divergences import divergence_row
from syncphase.errors import OutOfRange

fill = rng.uniform_filler(12, rng.CH_PHASE, 20)
u = np.empty((5000, 21))
moments = theoretical_moments(make_params(
    amplitude=1.0, f0=1.0, fs=20.0, phase=math.pi, sigma_additive=1e-11,
    n_samples=20))
tracemalloc.start()
try:
    fill(u, 0)
except ValueError:
    pass
try:
    divergence_row(moments)
except OutOfRange as exc:
    assert "from the seam" in str(exc), exc
else:
    raise AssertionError("the cell on the seam passed its checks")
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(held)
"""


def _held_after(calls):
    """The traced bytes `calls` print, run in a fresh interpreter: in this
    one, earlier tests' calls have run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", calls], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_no_scratch_outlives_its_call():
    assert _held_after(_CALLS) < 256 * 2**10


def test_no_scratch_outlives_a_failing_call():
    assert _held_after(_FAILING_CALLS) < 256 * 2**10
