"""The outputs the determinism contract calls portable keep their bytes
without NumPy's AVX-512 kernels.

NumPy picks some ufunc kernels at run time by CPU feature; on a CPU with
AVX-512, ``np.exp`` and ``np.arctan2`` take kernels whose last bits differ
from the ones used without it.  A child interpreter with the AVX-512 group
disabled through ``NPY_DISABLE_CPU_FEATURES`` recomputes the outputs that
avoid those kernels: the draws (Philox words, ``ndtri``, cosine synthesis,
Goertzel), a ``gen`` record and the bin statistic that ``estimate`` prints
for it.  Each must have the bytes computed in this process.

The analytic tables are not among them: the closed-form density calls
``np.exp``, and the pinned ``rmse`` table of -50..60 dB at N = 20 and 10^4
differs in the last digit of one cell (60 dB, 20 deg, N = 10^4) without
AVX-512.

Run as a script, this file prints the child's digests as JSON:
``python tests/test_portability.py WORK_DIR``.
"""
import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from syncphase.cli import main
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import reduced_dft_draws

WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SEED = 12
# (N, draws): the NumPy Philox kernel fills N = 20, the native loop N = 1000
DRAW_BATCHES = [(20, 20_000), (1000, 2_000)]
GEN = ["gen", "--n", "60", "--snr-db", "0", "--sigma-p-deg", "1",
       "--phi-deg", "30", "--seed", str(SEED)]
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def exp_digest():
    """Digest of np.exp on a fixed vector: it differs between the AVX-512
    kernel and the one below it."""
    return _sha(np.exp(np.linspace(-700.0, 700.0, 100_001)).tobytes())


def portable_outputs(work):
    """sha256 of each output the contract calls portable, by name."""
    work = pathlib.Path(work)
    digests = {}
    for n, n_draws in DRAW_BATCHES:
        params = make_params(1.0, 1.0, 10.0, phase=0.3,
                             sigma_additive=sigma_x_for_snr(1.0, 1.0),
                             sigma_phase=math.radians(1.0), n_samples=n)
        digests[f"reduced_dft_draws N={n}"] = _sha(
            reduced_dft_draws(params, SEED, 0, n_draws).tobytes())
    record = work / "record.csv"
    assert main(GEN + ["--out", str(record)]) == 0
    digests["gen"] = _sha(record.read_bytes())
    estimate = work / "estimate.csv"
    assert main(["estimate", "--in", str(record), "--out", str(estimate)]) == 0
    with open(estimate) as fp:
        rows = list(csv.DictReader(line for line in fp
                                   if not line.startswith("#")))
    # the statistic only: the phase columns pass through np.arctan2
    digests["estimate d_re,d_im"] = _sha(
        json.dumps([[row["d_re"], row["d_im"]] for row in rows]).encode())
    return digests


def _child(*args):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, __file__, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_portable_outputs_keep_their_bytes_without_avx512(tmp_path):
    probe = _child()
    if probe.returncode != 0:
        pytest.skip(f"NumPy rejects NPY_DISABLE_CPU_FEATURES="
                    f"{WITHOUT_AVX512!r}: {probe.stderr.strip()[-300:]}")
    if probe.stdout.strip() == exp_digest():
        pytest.skip("np.exp gives the same bits with the AVX-512 group "
                    "disabled (this CPU or NumPy build has no AVX-512 "
                    "kernel): the comparison would show nothing")
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    done = _child(tmp_path / "child")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == portable_outputs(tmp_path / "here")


if __name__ == "__main__":
    if len(sys.argv) == 1:
        print(exp_digest())
    else:
        print(json.dumps(portable_outputs(sys.argv[1])))
