#!/usr/bin/env python3
"""Emit the desk-scale figure datasets into ./figure_data/.

Produces:
  bloch_k{0..8}.csv      Bloch-sphere images of the first qubit family at
                         theta = k pi/8 (phi = 0)
  sweep.csv              entanglement of the Choi state (numeric + closed
                         form), Holevo bound, and map entropy over theta
  trajectory.csv(.summary.json)
                         one driven period theta = t with the
                         non-Markovianity summary
  entanglement_evolution.csv
                         output vs input concurrence for one-sided channel
                         action at several phases

Plotting is intentionally out of scope; every file is a flat CSV/JSON.
"""

import math
import os
import sys

import numpy as np

from qchan import entanglement_evolution_factor, qubit_family_a
from qchan.cli import main as qchan_main


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "figure_data"
    os.makedirs(outdir, exist_ok=True)

    rc = qchan_main(["bloch", "--batch", "--points", "600",
                     "--out", os.path.join(outdir, "bloch.csv")])
    rc |= qchan_main(["sweep", "--points", "101", "--out", os.path.join(outdir, "sweep.csv")])
    rc |= qchan_main(["dynamics", "--family", "qubit-a", "--omega", "1.0",
                      "--t-max", str(math.pi), "--steps", "4096",
                      "--out", os.path.join(outdir, "trajectory.csv")])

    # Output concurrence against input concurrence: inputs
    # cos(a)|00> + sin(a)|11> span C_in in [0, 1].
    phases = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    header = ["c_in"] + [f"c_out_theta_{i}" for i in range(len(phases))]
    lines = ["# phases: " + ", ".join(f"{t:.6f}" for t in phases), ",".join(header)]
    for alpha in np.linspace(0.0, math.pi / 4, 41):
        ket = np.array([math.cos(alpha), 0.0, 0.0, math.sin(alpha)], dtype=complex)
        # cos^2 + sin^2 rounds off 1 for some alpha: normalise, in complex
        # arithmetic, so that the theta = pi/4 column (rounding noise around
        # the exact zero) keeps its last bits.
        ket /= np.linalg.norm(ket)
        rho = np.outer(ket, ket.conj())
        row = [abs(math.sin(2 * alpha))]
        for theta in phases:
            _, direct = entanglement_evolution_factor(qubit_family_a(theta), rho)
            row.append(direct)
        lines.append(",".join(f"{v:.12g}" for v in row))
    with open(os.path.join(outdir, "entanglement_evolution.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"figure data written to {outdir}/")
    return rc


if __name__ == "__main__":
    sys.exit(main())
