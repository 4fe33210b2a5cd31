"""Record the reference data the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/data/reference.json``: the output digest of each
workload's reference op, the analytic RMSE at the two MC points, and the
rmse / divergence / efficiency tables over the whole analytic grid pool, all
from the syncphase source it imports.  Re-record only on purpose: the
benchmark treats any difference from these values as a wrong output.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from run import git_revision, source_digest  # noqa: E402

# Cells where the Cartesian oracle is cheap and accurate (one per regime
# that its nested QUADPACK route resolves): (snr_db, sigma_p_deg, n).
ORACLE_CELLS = [(-10.0, 0.0, 1000), (0.0, 1.0, 1000), (20.0, 0.0, 1000),
                (-20.0, 5.0, 20), (10.0, 2.0, 100)]


def _table(main, out_dir, argv):
    path = os.path.join(out_dir, "table.csv")
    code = main(list(argv) + ["--out", path])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return checks.read_table(path)[2]


def _rmse_polar_deg(snr_db, sigma_p_deg, n):
    from syncphase import PolarPdf, rmse_polar

    moments = checks.cli_moments(snr_db, sigma_p_deg, n)
    return math.degrees(rmse_polar(PolarPdf.from_moments(moments)))


def main() -> int:
    from syncphase.cli import main as cli_main

    csv = workloads.csv_list
    ref = {"recorded_from": {"git_revision": git_revision(),
                             "src_sha256": source_digest()},
           "digests": {}, "oracle_cells": ORACLE_CELLS}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in ("mc_short", "mc_long", "battery"):
            op = workloads.reference_op(name)
            if cli_main(op.argv(out_dir)) != 0:
                raise SystemExit(f"reference op of {name} failed")
            ref["digests"][name] = checks.digest(op.paths(out_dir))

        rows = _table(cli_main, out_dir, [
            "rmse", "--snr-db", csv(workloads.SNR_POOL),
            "--sigma-p-deg", csv(workloads.SIGMA_POOL),
            "--n", csv(workloads.N_POOL)])
        ref["rmse"] = {checks.cell_key(*r[:3]): r[3:] for r in rows}
        bad = [k for k, v in ref["rmse"].items() if v[0] == "NA"]
        if bad:
            raise SystemExit(f"rmse failed on cells {bad}")

        ref["divergence"] = {}
        ref["efficiency"] = {}
        for sigma in workloads.SIGMA_POOL:
            for n in workloads.N_POOL:
                for r in _table(cli_main, out_dir, [
                        "divergence", "--snr-db", csv(workloads.SNR_POOL),
                        "--sigma-p-deg", str(sigma), "--n", str(n)]):
                    ref["divergence"][checks.cell_key(r[0], sigma, n)] = r[1:]
            for snr in workloads.SNR_POOL:
                for r in _table(cli_main, out_dir, [
                        "efficiency", "--snr-db", str(snr),
                        "--sigma-p-deg", str(sigma),
                        "--n", csv(workloads.N_POOL)]):
                    ref["efficiency"][checks.cell_key(*r[:3])] = r[3:]

    ref["mc_rmse_polar_deg"] = {"mc_short": _rmse_polar_deg(-10.0, 5.0, 20),
                                "mc_long": _rmse_polar_deg(0.0, 1.0, 1000)}
    gaps = [checks.oracle_gap(*cell) for cell in ORACLE_CELLS]
    print("oracle gaps:", ", ".join(f"{g:.2e}" for g in gaps))
    if max(gaps) > checks.ORACLE_REL_TOL:
        raise SystemExit("an oracle cell misses the oracle tolerance")

    path = os.path.join(HERE, "data", "reference.json")
    with open(path, "w") as fp:
        json.dump(ref, fp, indent=0, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}: {len(ref['rmse'])} rmse, {len(ref['divergence'])} "
          f"divergence, {len(ref['efficiency'])} efficiency cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
