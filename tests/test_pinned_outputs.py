"""Pinned output bytes of the analytic commands.

Each invocation below writes a table whose SHA-256 was recorded from the
quadrature that evaluated one Gauss 7/15 panel per integrand call.  Any
speed work on the analytic path (batched panel evaluation, shared node
sets) must leave every byte of these tables as it was.
"""
import hashlib
import math

import pytest

from syncphase.cli import main
from syncphase.phase_pdf import NARROW_SPREAD, PolarPdf
from syncphase.signal_model import make_params, sigma_x_for_snr
from syncphase.spectral_estimator import theoretical_moments

# (argv without --out, sha256 of the table it writes)
PINNED = [
    (["rmse", "--snr-db", "-50,-20,0,20,60", "--sigma-p-deg", "0,0.5,5,20",
      "--n", "20,10000"],
     "3889c71188dd5670db91a735fc89e63a42619326eff0a5fe0b7f66fea534ef30"),
    (["rmse", "--snr-db", "-10,10,40", "--sigma-p-deg", "1,2,10",
      "--n", "100,1000", "--json"],
     "ca05e55a2abe9f5c3b9dc2a44755832661216c3c941dbfa182b206e00be2fde2"),
    (["efficiency", "--snr-db", "60", "--sigma-p-deg", "0",
      "--n", "20,100,1000,10000"],
     "6296ccf6eff56b9e83c5f0aedc4a9c703d24b8245bbf6645c1ff4c9dca1eed6d"),
    (["efficiency", "--snr-db", "-10", "--sigma-p-deg", "10",
      "--n", "20,100,1000,10000"],
     "f0bbd7374dd6abf77740dda5b88b03c993d813ad7b7009167c043c09ccdedfcf"),
    (["divergence", "--snr-db", "-50,0,30,60", "--sigma-p-deg", "0",
      "--n", "10000"],
     "c8a4ccb7c01a04520e8500051f373a257a79dc105227da1e60bc550b9a59f226"),
    (["divergence", "--snr-db", "-20,10,40", "--sigma-p-deg", "20",
      "--n", "20"],
     "5fccacb735e51a0f495164545c26e60aeafa266179b4ca57428491521f6c68ac"),
    (["divergence", "--snr-db", "0,60", "--sigma-p-deg", "2", "--n", "1000",
      "--json"],
     "3260b94343a0ba5b1b076f5d16742033e12a7e28c0c8e23a269788c1e838423a"),
    (["pdf", "--snr-db", "60", "--sigma-p-deg", "0", "--n", "10000",
      "--theta-start-deg", "-1", "--theta-stop-deg", "1", "--points", "101"],
     "b7167dbb1ad519c5a4db7d7987b130ad41f9c6b4a4739e67f640b3eb0aed6e16"),
    (["pdf", "--snr-db", "-50", "--sigma-p-deg", "20", "--n", "20",
      "--phi-deg", "170"],
     "02ad6a68f099f3e4d35f37cd8c4fcd9d51b96916df7b7c28548eea735e879ec3"),
    (["pdf", "--snr-db", "20", "--sigma-p-deg", "5", "--n", "100",
      "--phi-deg", "-60", "--points", "181", "--json"],
     "8f7bc23ba3bf0a244330a3d10ec673ce6502a4d7dcbf9417f0bc2fc5e3b6bd46"),
]


def _values(argv, flag):
    return [float(v) for v in argv[argv.index(flag) + 1].split(",")]


def _cells():
    """Every (snr_db, sigma_p_deg, n) the pinned analytic tables cover."""
    for argv, _ in PINNED:
        for snr_db in _values(argv, "--snr-db"):
            for sigma_p_deg in _values(argv, "--sigma-p-deg"):
                for n in _values(argv, "--n"):
                    yield snr_db, sigma_p_deg, int(n)


def _spread(snr_db, sigma_p_deg, n):
    params = make_params(1.0, "1.0", "10.0",
                         sigma_additive=sigma_x_for_snr(1.0, 10.0 ** (snr_db / 10.0)),
                         sigma_phase=math.radians(sigma_p_deg), n_samples=n)
    return PolarPdf.from_moments(theoretical_moments(params)).spread


@pytest.mark.parametrize("argv, digest", PINNED,
                         ids=[" ".join(argv[:1] + argv[2:3]) + f" #{i}"
                              for i, (argv, _) in enumerate(PINNED)])
def test_table_bytes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "table"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_pinned_tables_cover_the_analytic_grid():
    cells = list(_cells())
    assert {"rmse", "efficiency", "divergence", "pdf"} == \
        {argv[0] for argv, _ in PINNED}
    assert min(c[0] for c in cells) == -50.0 and max(c[0] for c in cells) == 60.0
    assert min(c[1] for c in cells) == 0.0 and max(c[1] for c in cells) == 20.0
    assert min(c[2] for c in cells) == 20 and max(c[2] for c in cells) == 10000
    # both branches of the moment integrals and of the density node sets
    spreads = [_spread(*c) for c in cells]
    assert min(spreads) < NARROW_SPREAD <= max(spreads)
