"""The four benchmark workloads, as streams of ``syncphase`` argv lists.

Every operation is one in-process ``syncphase.cli.main(argv)`` call.  Op
``i`` of workload ``w`` under seed ``s`` is a pure function of
``(w, s, i, sizes)``: the generator is ``random.Random("w:s:i")``, whose
string seeding goes through SHA-512 and so does not depend on the
interpreter's hash randomisation.  The program only ever sees the argv.

Output paths are not part of an op; the runner supplies a directory and
the op names its files inside it, so two runs of one op differ only in
where they write.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 12

WORKLOADS = ("mc_short", "mc_long", "analytic_sweep", "battery")

# The analytic grid pool: every analytic cell the sweep can ask for, and so
# every cell the recorded reference table covers.
SNR_POOL = tuple(float(v) for v in range(-50, 61, 10))
SIGMA_POOL = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
N_POOL = (20, 100, 1000, 10000)

# Battery points (snr_db, sigma_p_deg), visited in turn: finite SNR and
# positive phase noise, so every point draws both noise channels and has a
# non-singular covariance.  An op's cost depends on its point, so the seed
# picks only the MC seeds and every run has the same mix of points.
BATTERY_POINTS = (("0", "0.1"), ("20", "5"))

# Per-workload sizes for a measured run; tests pass smaller ones.  "ops" is
# how many distinct ops one pass holds.  A run repeats its pass until its
# time is up, so a pass is kept under about a second: each op then runs
# many times, and its median run is steady.
SIZES: Dict[str, Dict[str, int]] = {
    "mc_short": {"ops": 3, "draws": 4_000},
    "mc_long": {"ops": 3, "draws": 1_000},
    "analytic_sweep": {"ops": 60, "rmse_snr": 3, "rmse_sigma": 2,
                       "rmse_n": 2, "div_snr": 3},
    "battery": {"ops": 2, "reps": 1, "hz_draws": 2_000,
                "hoeffding_draws": 2_000},
}

# The tiny operation every fresh interpreter runs before it counts as set up.
WARMUP_ARGV = ("mc", "--snr-db", "0", "--n", "20", "--draws", "10",
               "--seed", "0")


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call: argv without output paths, plus what it covers.

    ``items`` is the op's unit of work: MC draws (mc_*), table rows
    (analytic_sweep) or grid points (battery).  ``outputs`` names the output
    flags the op writes, in order.
    """

    workload: str
    index: int
    kind: str
    args: Tuple[str, ...]
    items: int
    outputs: Tuple[str, ...] = ("--out",)

    def paths(self, out_dir: str) -> List[str]:
        return [os.path.join(out_dir, flag.strip("-") + ".csv")
                for flag in self.outputs]

    def argv(self, out_dir: str) -> List[str]:
        argv = list(self.args)
        for flag, path in zip(self.outputs, self.paths(out_dir)):
            argv += [flag, path]
        return argv


def _num(value: float) -> str:
    return repr(float(value))


def csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def _mc_short(r: random.Random, sizes, index: int) -> Op:
    # The Criterion 8/9 histogram cell: N=20, -10 dB, 5 deg, phi=60 deg.
    draws = sizes["draws"]
    args = ("mc", "--snr-db", "-10", "--sigma-p-deg", "5", "--phi-deg", "60",
            "--n", "20", "--draws", str(draws),
            "--seed", str(r.randrange(2**31)))
    return Op("mc_short", index, "mc", args, draws, ("--out", "--hist-out"))


def _mc_long(r: random.Random, sizes, index: int) -> Op:
    # The Criterion 7 point: N=1000, 0 dB, 1 deg.  The true phase is free
    # (the error statistics do not depend on it), so the seed draws it.
    draws = sizes["draws"]
    phi = round(r.uniform(-180.0, 180.0), 1)
    args = ("mc", "--snr-db", "0", "--sigma-p-deg", "1", "--phi-deg",
            _num(phi), "--n", "1000", "--draws", str(draws),
            "--seed", str(r.randrange(2**31)))
    return Op("mc_long", index, "mc", args, draws)


def _analytic(r: random.Random, sizes, index: int) -> Op:
    # A fixed rotation keeps the mix of table kinds the same on every seed;
    # the seed picks the cells.
    kind = ("rmse", "divergence", "efficiency")[index % 3]
    if kind == "rmse":
        snr = sorted(r.sample(SNR_POOL, sizes["rmse_snr"]))
        sigma = sorted(r.sample(SIGMA_POOL, sizes["rmse_sigma"]))
        n = sorted(r.sample(N_POOL, sizes["rmse_n"]))
        args = ("rmse", "--snr-db", csv_list(snr),
                "--sigma-p-deg", csv_list(sigma), "--n", csv_list(n))
        items = len(snr) * len(sigma) * len(n)
    elif kind == "divergence":
        snr = sorted(r.sample(SNR_POOL, sizes["div_snr"]))
        args = ("divergence", "--snr-db", csv_list(snr),
                "--sigma-p-deg", str(r.choice(SIGMA_POOL)),
                "--n", str(r.choice(N_POOL)))
        items = len(snr)
    else:
        args = ("efficiency", "--snr-db", str(r.choice(SNR_POOL)),
                "--sigma-p-deg", str(r.choice(SIGMA_POOL)),
                "--n", csv_list(N_POOL))
        items = len(N_POOL)
    return Op("analytic_sweep", index, kind, args, items)


def _battery(r: random.Random, sizes, index: int) -> Op:
    snr, sigma = BATTERY_POINTS[index % len(BATTERY_POINTS)]
    args = ("normality", "--snr-db", snr, "--sigma-p-deg", sigma, "--n", "20",
            "--seed", str(r.randrange(2**31)),
            "--reps", str(sizes["reps"]),
            "--hz-draws", str(sizes["hz_draws"]),
            "--hoeffding-draws", str(sizes["hoeffding_draws"]))
    return Op("battery", index, "normality", args, 1)


_BUILDERS = {
    "mc_short": _mc_short,
    "mc_long": _mc_long,
    "analytic_sweep": _analytic,
    "battery": _battery,
}


def make_op(workload: str, seed: int, index: int, sizes=None) -> Op:
    """Op ``index`` of ``workload`` under ``seed``."""
    r = random.Random(f"{workload}:{seed}:{index}")
    return _BUILDERS[workload](r, sizes or SIZES[workload], index)


def reference_op(workload: str) -> Op:
    """The op whose output digest is recorded: op 0 at the default seed."""
    return make_op(workload, DEFAULT_SEED, 0)
