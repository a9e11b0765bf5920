"""Command-line surface.

Subcommands
-----------
family    generate a channel from a named family and write channel JSON
          (with a validation block) to --out
analyze   structural and information-theoretic report for a channel JSON
sweep     phase sweep of the first qubit family: entanglement of the Choi
          state (numeric and closed form), Holevo bound, map entropy, CSV
bloch     Bloch-sphere image point clouds, CSV (single phase or the batch
          theta = k pi/8, k = 0..8)
dynamics  driven-family trajectory CSV plus a non-Markovianity summary JSON

Exit codes: 0 success, 2 parameter error, 3 input-format error,
4 numerical failure.  All outputs are deterministic: the same invocation
produces byte-identical files.  Entropic columns are in nats unless --bits
(analyze, sweep, dynamics) is given, which rescales them by 1/ln 2 and
renames headers accordingly.  --tol (family, analyze) is at most MAX_TOL.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .channels import validate_channel
from .dynamics import (
    bloch_image,
    increase_duration,
    non_markovianity_measure,
    run_trajectory,
)
from .families import FAMILIES, dft_matrix, family_ids, qubit_family_a
from .linalg import DEFAULT_TOL, NumericalError, blocks
from .measures import (
    capacity_lower_bounds,
    choi_measures,
    concurrence_closed_form,
    information_quantities,
    negativity_closed_form,
)
from .serialize import (
    MAX_DIM,
    ChannelFormatError,
    _read_json,
    channel_to_dict,
    matrix_from_pairs,
    read_channel,
    write_json_atomic,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_FORMAT = 3
EXIT_NUMERICAL = 4

LN2 = math.log(2.0)

# Largest --points of sweep and bloch and --steps of dynamics: 256 times the
# benchmark's largest grid.  Without it a huge grid fails only in the
# allocator.
MAX_POINTS = 2**20

# Largest --tol.  The states derived from a channel accepted at --tol have
# traces within n_in * --tol of 1: within 1.3e-4 at the cap and n <= MAX_DIM.
MAX_TOL = 1e-6


def _csv(header: list[str], table: np.ndarray) -> str:
    """The CSV of an (N, c) float table, each value with 12 significant
    digits, from one row template."""
    rows, cols = table.shape
    row = ",".join(["%.12g"] * cols) + "\n"
    return ",".join(header) + "\n" + (row * rows) % tuple(table.ravel().tolist())


def _load_w(source: str, dim: int) -> np.ndarray:
    if source == "identity":
        return np.eye(dim)
    if source == "fourier":
        return dft_matrix(dim)
    return matrix_from_pairs(_read_json(source, "unitary parameter"))


def _build(args: argparse.Namespace) -> np.ndarray:
    """The channel of ``args.family``, built from the options its table row
    names, in order."""
    family = FAMILIES[args.family]

    def option(name: str):
        if name == "w":  # the qutrit family's W is 3 x 3, the ndim family's n x n
            return _load_w(args.w_source, args.dim if "dim" in family.params else 3)
        return getattr(args, name)

    return family.build(*map(option, family.params))


def cmd_family(args: argparse.Namespace) -> int:
    channel = _build(args)
    validation = validate_channel(channel, args.tol)
    doc = channel_to_dict(channel)
    doc["validation"] = {
        "cptp_residual": validation.cptp_residual,
        "selfcomplementary": validation.selfcomplementary,
        "choi_rank": validation.choi_rank,
    }
    write_json_atomic(args.out, doc)
    return EXIT_OK


def _entropy_key(base: str, bits: bool) -> str:
    return base.replace("_nats", "_bits") if bits else base


def cmd_analyze(args: argparse.Namespace) -> int:
    kraus = read_channel(args.channel_path)
    validation = validate_channel(kraus, args.tol)
    scale = 1.0 / LN2 if args.bits else 1.0
    k, n_out, n_in = kraus.shape
    report: dict = {
        "n_in": n_in,
        "n_out": n_out,
        "kraus_count": k,
        "cptp_residual": validation.cptp_residual,
        "cptp_ok": validation.cptp_ok,
        "selfcomplementary": validation.selfcomplementary,
        "choi_rank": validation.choi_rank,
    }
    # Information measures are meaningless for a non-channel: a non-channel
    # gets the structural fields and nulls.
    values = [None] * 3
    if validation.cptp_ok:
        values = [v * scale for v in information_quantities(kraus, validation.gram_spectrum)]
    for name, value in zip(("map_entropy", "coherent_information", "chi_bound"), values):
        report[_entropy_key(f"{name}_nats", args.bits)] = value
    write_json_atomic(args.out, report)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError("sweep needs a grid of at least 2 points")
    if not 0.0 < args.theta_max <= math.pi / 2:
        raise ValueError("theta-max must lie in (0, pi/2], the closed forms' domain")
    thetas = np.linspace(0.0, args.theta_max, args.points)
    scale = 1.0 / LN2 if args.bits else 1.0
    neg, conc, ent, chi = np.empty((4, args.points))
    for block in blocks(args.points):
        kraus = qubit_family_a(thetas[block], args.phi)
        neg[block], conc[block], ent[block] = choi_measures(kraus)
        chi[block] = capacity_lower_bounds(kraus, np.eye(2))
    grid = thetas.tolist()
    neg_closed = [negativity_closed_form(theta) for theta in grid]
    conc_closed = [concurrence_closed_form(theta) for theta in grid]
    table = np.column_stack([thetas, neg, neg_closed, conc, conc_closed, chi * scale, ent * scale])
    header = [
        "theta",
        "negativity_numeric",
        "negativity_closed",
        "concurrence_numeric",
        "concurrence_closed",
        _entropy_key("chi_bound_nats", args.bits),
        _entropy_key("map_entropy_nats", args.bits),
    ]
    write_text_atomic(args.out, _csv(header, table))
    return EXIT_OK


def cmd_bloch(args: argparse.Namespace) -> int:
    header = ["x", "y", "z"]
    if args.batch:
        stem, ext = os.path.splitext(args.out)
        ext = ext or ".csv"
        for k in range(9):
            member = argparse.Namespace(**{**vars(args), "theta": k * math.pi / 8.0})
            points = bloch_image(_build(member), args.points)
            write_text_atomic(f"{stem}_k{k}{ext}", _csv(header, points))
        return EXIT_OK
    points = bloch_image(_build(args), args.points)
    write_text_atomic(args.out, _csv(header, points))
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("dynamics needs at least 2 steps")
    # --steps counts uniform intervals; sampling the endpoints too keeps the
    # grid aligned with the extrema of the driven records.
    traj = run_trajectory(args.family, args.omega, args.t_max, args.steps + 1)
    scale = 1.0 / LN2 if args.bits else 1.0
    header = [
        "t",
        "theta",
        "negativity",
        "concurrence",
        _entropy_key("map_entropy_nats", args.bits),
    ]
    table = np.column_stack(
        [traj.times, traj.parameter, traj.negativity, traj.concurrence, traj.map_entropy * scale]
    )
    write_text_atomic(args.out, _csv(header, table))
    summary = {
        "family": args.family,
        "omega": args.omega,
        "t_max": args.t_max,
        "steps": args.steps,
        "non_markovianity_positive_variation": non_markovianity_measure(traj, "negativity"),
        "increase_duration": increase_duration(traj, "negativity"),
        "concurrence_positive_variation": non_markovianity_measure(traj, "concurrence"),
    }
    stem = os.path.splitext(args.out)[0] or args.out
    write_json_atomic(stem + ".summary.json", summary)
    return EXIT_OK


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which refuses an unknown option itself, with
    its own usage line, rather than passing it up to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Quantum-channel toolkit: families, conversions, measures, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def common(p, tol: bool = False, bits: bool = False):
        p.add_argument("--out", required=True, help="output path")
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="validation tolerance")
        if bits:
            p.add_argument(
                "--bits",
                action="store_true",
                help="report entropic quantities in bits instead of nats",
            )

    p_family = sub.add_parser("family", help="generate a family channel as JSON")
    p_family.add_argument(
        "--id",
        dest="family",
        required=True,
        choices=family_ids("family"),
    )
    p_family.add_argument("--theta", type=float, default=0.0)
    p_family.add_argument("--phi", type=float, default=0.0)
    p_family.add_argument("--p", type=float, default=0.5, help="decay probability for --id ad")
    p_family.add_argument("--n", dest="dim", type=int, default=2, help="dimension for ndim ids")
    p_family.add_argument(
        "--w",
        dest="w_source",
        default="identity",
        help="unitary parameter: 'identity', 'fourier', or a JSON matrix file",
    )
    common(p_family, tol=True)

    p_analyze = sub.add_parser("analyze", help="report on a channel JSON file")
    p_analyze.add_argument("--in", dest="channel_path", required=True)
    common(p_analyze, tol=True, bits=True)

    p_sweep = sub.add_parser("sweep", help="phase sweep CSV for the first qubit family")
    p_sweep.add_argument("--points", type=int, default=100)
    p_sweep.add_argument("--theta-max", dest="theta_max", type=float, default=math.pi / 2)
    p_sweep.add_argument("--phi", type=float, default=0.0)
    common(p_sweep, bits=True)

    p_bloch = sub.add_parser("bloch", help="Bloch-sphere image CSV")
    p_bloch.add_argument("--family", default="qubit-a", choices=family_ids("bloch"))
    p_bloch.add_argument("--theta", type=float, default=0.0)
    p_bloch.add_argument("--phi", type=float, default=0.0)
    p_bloch.add_argument("--points", type=int, default=500)
    p_bloch.add_argument(
        "--batch", action="store_true", help="emit the theta = k pi/8 batch, k = 0..8"
    )
    common(p_bloch)

    p_dyn = sub.add_parser("dynamics", help="driven-family trajectory CSV + summary JSON")
    p_dyn.add_argument("--family", default="qubit-a", choices=family_ids("dynamics"))
    p_dyn.add_argument("--omega", type=float, default=1.0)
    p_dyn.add_argument("--t-max", dest="t_max", type=float, default=math.pi)
    p_dyn.add_argument("--steps", type=int, default=4096, help="number of uniform time intervals")
    common(p_dyn, bits=True)

    return parser


COMMANDS = {
    "family": cmd_family,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "bloch": cmd_bloch,
    "dynamics": cmd_dynamics,
}


def _check_options(args: argparse.Namespace) -> None:
    """Refuse an empty --out, a non-finite float option, a --tol outside (0,
    MAX_TOL], an empty grid, a grid above MAX_POINTS and a dimension above
    MAX_DIM before anything is built."""
    if not args.out:
        raise ValueError("--out must name a file, got ''")
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    tol = getattr(args, "tol", DEFAULT_TOL)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if tol > MAX_TOL:
        raise ValueError(f"--tol {tol} is above the tolerance cap {MAX_TOL}")
    if getattr(args, "points", 1) < 1:
        raise ValueError("grid size must be at least 1")
    for name in ("points", "steps"):
        size = getattr(args, name, 1)
        if size > MAX_POINTS:
            raise ValueError(f"--{name} {size} is above the grid cap {MAX_POINTS}")
    if getattr(args, "dim", 1) > MAX_DIM:
        raise ValueError(f"--n {args.dim} is above the dimension cap {MAX_DIM}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return COMMANDS[args.command](args)
    except (ChannelFormatError,) as exc:
        print(f"qchan: input format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericalError as exc:
        print(f"qchan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"qchan: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
