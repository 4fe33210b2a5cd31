"""Pinned output bytes of the analytic commands.

Each invocation below writes a table whose SHA-256 was recorded from the
quadrature that evaluated one Gauss 7/15 panel per integrand call.  Any
speed work on the analytic path (batched panel evaluation, shared node
sets) must leave every byte of these tables as it was.

The CLI puts every `divergence` lobe at phi = 0, so the density grids of a
lobe away from 0, and the bits of `pdf_value` itself, are pinned at the
library level further down, recorded from the code before the one-pass
divergence cells.
"""
import hashlib
import math

import numpy as np
import pytest

from syncphase.cli import main
from syncphase.divergences import (
    bhattacharyya_distance,
    density_from_pdf,
    divergence_row,
    gaussian_approximation,
    kl_divergence,
    uniform_density_on,
)
from syncphase.errors import SupportMismatch
from syncphase.phase_pdf import NARROW_SPREAD, PolarPdf, pdf_value
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


# (snr_db, sigma_p_deg, n, phi) -> sha256 of the grid's nodes, of its
# values, of the Gaussian approximation's values on those nodes, and of
# pdf_value on an array that spans both signs of cos(theta - phi); the hex
# of KL to the Gaussian, KL to uniform and the Bhattacharyya distance; and
# pdf_value at the scalars phi + spread/2 (cos > 0) and phi + 2 (cos < 0).
LIBRARY_PINS = {
    # narrow lobe hugging +pi: its dense window crosses the seam
    "seam": ((40.0, 0.0, 1000, math.pi - 3e-4), {
        "nodes": "b16a3607631499de533d8c2476cf338d609200278c440ae9aecc99cc47bee5aa",
        "p": "2411fb97bdcd7fdac9ce1b97924b8a299c793d4b7f4b15afa3c7f07d0234a01e",
        "q": "3c14896e02b41d67758591181078b1f65fc91bf94522dd00966e7b4bc6e6eafd",
        "pdf": "0b3b0136189c6855fec971cf8d48f3e2c2af15e365887124f1119ef5d3393334",
        "kl_gauss": "0x1.8a15c954c2880p-36",
        "kl_uniform": "0x1.0f4ba9f178ef7p+3",
        "bhat": "-0x1.89ebfffff6876p-37",
        "at_lobe": "0x1.165502f2eeda5p+10",
        "opposite": "0x0.0p+0",
    }),
    # wide lobe at phi = -2 rad (stored as 2 pi - 2)
    "wide": ((0.0, 5.0, 20, -2.0), {
        "nodes": "fa36789d8cb925e1053c6a2b39886124fc2dc560eef6167c9fefb0f051c46f29",
        "p": "66e6d6bf63c4c990f14fceb4ebb2e2b5f10f49bbbb6f7a3e009b8f176cb5a25e",
        "q": "355b4748a227dcec99d0ecd502134e43b765ffde8506f7d08ac6267643d0233a",
        "pdf": "d1d49d919664a4e1acd80f0adaf2df921c757e5f836458a7f54c83fad011cc66",
        "kl_gauss": "0x1.35674c7806f46p-9",
        "kl_uniform": "0x1.e1a5896d24a38p+0",
        "bhat": "0x1.d58152e5e04d2p-12",
        "at_lobe": "0x1.8db2231c556fap+0",
        "opposite": "0x1.8a4a2e50cd3a0p-20",
    }),
}


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()
                          ).hexdigest()


def _moments(snr_db, sigma_p_deg, n, phi):
    return theoretical_moments(make_params(
        1.0, "1.0", "10.0", phase=phi,
        sigma_additive=sigma_x_for_snr(1.0, 10.0 ** (snr_db / 10.0)),
        sigma_phase=math.radians(sigma_p_deg), n_samples=n))


def _library_outputs(snr_db, sigma_p_deg, n, phi):
    moments = _moments(snr_db, sigma_p_deg, n, phi)
    pdf = PolarPdf.from_moments(moments)
    p = density_from_pdf(pdf)
    q = gaussian_approximation(moments, p.nodes)
    theta = np.concatenate((np.linspace(-4.0, 4.0, 2001),
                            pdf.phi + pdf.spread * np.linspace(-50.0, 50.0, 1001)))
    return pdf, p, {
        "nodes": _sha(p.nodes),
        "p": _sha(p.values),
        "q": _sha(q.values),
        "pdf": _sha(pdf_value(pdf, theta)),
        "kl_gauss": kl_divergence(p, q).hex(),
        "kl_uniform": kl_divergence(p, uniform_density_on(p.nodes)).hex(),
        "bhat": bhattacharyya_distance(p, q).hex(),
        "at_lobe": pdf_value(pdf, pdf.phi + 0.5 * pdf.spread).hex(),
        "opposite": pdf_value(pdf, pdf.phi + 2.0).hex(),
    }


@pytest.mark.parametrize("name", sorted(LIBRARY_PINS))
def test_library_bits_are_pinned(name):
    cell, pinned = LIBRARY_PINS[name]
    pdf, p, outputs = _library_outputs(*cell)
    assert outputs == pinned
    # the cells are what their names say
    if name == "seam":
        assert pdf.spread < NARROW_SPREAD and p.nodes.size > 2**15 + 2**10
        # dense on both sides of the seam, not just the ambient grid
        edge = 10.0 * pdf.spread
        assert np.count_nonzero(p.nodes > math.pi - edge) > 1000
        assert np.count_nonzero(p.nodes < -math.pi + edge) > 1000
    else:
        assert pdf.spread >= NARROW_SPREAD and pdf.phi != 0.0


# The divergence row on the pinned cells, on a narrow lobe at phi = 0 (the
# CLI's), and on a wide lobe whose Gaussian approximation vanishes on nodes
# carrying p-mass, where KL to it is None.
ROW_CELLS = {**{name: cell for name, (cell, _) in LIBRARY_PINS.items()},
             "narrow": (60.0, 0.0, 10000, 0.0),
             "unsupported": (0.0, 2.0, 1000, 0.0)}


@pytest.mark.parametrize("name", sorted(ROW_CELLS))
def test_divergence_row_is_the_three_grid_divergences(name):
    moments = _moments(*ROW_CELLS[name])
    p = density_from_pdf(PolarPdf.from_moments(moments))
    q = gaussian_approximation(moments, p)
    try:
        kl_gauss = kl_divergence(p, q).hex()
    except SupportMismatch:
        kl_gauss = None
    want = (kl_divergence(p, uniform_density_on(p)).hex(),
            bhattacharyya_distance(p, q).hex(), kl_gauss)
    got = tuple(None if v is None else v.hex()
                for v in divergence_row(moments))
    assert got == want
    assert (kl_gauss is None) == (name == "unsupported")
    if name in LIBRARY_PINS:
        pinned = LIBRARY_PINS[name][1]
        assert got == (pinned["kl_uniform"], pinned["bhat"],
                       pinned["kl_gauss"])
