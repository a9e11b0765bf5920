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
renames headers accordingly.  --tol (analyze) is at most MAX_TOL.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from .channels import validate_channel
from .dynamics import _bloch_images, increase_duration, positive_variation, run_trajectory
from .families import FAMILIES, dft_matrix, family_ids, qubit_family_a
from .linalg import DEFAULT_TOL, blocks
from .measures import (
    _capacity_bounds,
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


# The %.12g kernel of _csv gives each value a 40-byte row of five 8-byte words:
#   0  "-0.000" and two unused bytes: the sign and the zeros of 0.000ddd
#   1  d0 . d1 . d2 . d3 .    the 12 significant digits, each followed by a
#   2  d4 . d5 . d6 . d7 .    decimal point slot, looked up four at a time
#   3  d8 . d9 . d10 . d11 e  (the last slot holds the exponent's "e")
#   4  the exponent's sign and two digits, the separator, four unused bytes
# A keep-mask row per layout zeroes the bytes the value does not print, and
# bytes.translate deletes the zeros.  The words are made from bytes, so they
# read the same on either byte order.
_U64 = np.dtype(np.uint64)


@functools.cache
def _g12_tables() -> tuple:
    """The kernel's tables: powers of ten, digit groups, the XOR that turns
    word 3's last point into "e", group lengths, exponent words, word 0,
    layout offsets and the keep-masks.  They are built on the first CSV
    write, so family and analyze never build them, and shared, so never
    changed."""
    powers = np.array([float(f"1e{k}") for k in range(-88, 112)])  # correctly rounded
    # Group g = d0 d1 d2 d3 is entry g of the (10, 10, 10, 10) grids; digit
    # k adds dk to byte 2 k of the word "0.0.0.0.".
    d = np.arange(10, dtype=_U64)
    grid = [d.reshape(-1, 1, 1, 1), d.reshape(-1, 1, 1), d.reshape(-1, 1), d]
    unit = np.eye(8, dtype=np.uint8)[::2].copy().view(_U64)[:, 0]
    groups = functools.reduce(np.add, [dk * unit[k] for k, dk in enumerate(grid)])
    groups = (groups + np.frombuffer(b"0.0.0.0.", _U64)).ravel()
    dot_to_e = np.frombuffer(bytes(7) + bytes([ord(".") ^ ord("e")]), _U64)[0]
    # The digits a group adds to a value, up to its last nonzero one: none
    # for 0000 after the first group, which is at least 1000.
    length = [np.int8(k + 1) * (dk != 0) for k, dk in enumerate(grid)]
    length = functools.reduce(np.maximum, length).ravel()
    lengths = (length + np.array([[0], [4], [8]], np.int8)) * (length != 0)
    # Word 4 for exponent e (row e + 99), in an inner and in the last column.
    e = np.arange(-99, 100)
    tails = np.zeros((199, 2, 8), np.uint8)
    sign = np.where(e < 0, ord("-"), ord("+"))
    tails[:, :, :3] = np.stack([sign, abs(e) // 10 + ord("0"), abs(e) % 10 + ord("0")], -1)[:, None]
    tails[:, :, 3] = [ord(","), ord("\n")]
    head = np.frombuffer(b"-0.000\0\0", _U64)[0]
    # Layouts: form e + 4 for a fixed exponent e in -4..11, form 16 for
    # scientific; then the number of significant digits, 0..12, and the
    # sign bit.  A value's layout is forms[e + 99] + 2 * digits + signbit(v).
    forms = np.where((e >= -4) & (e < 12), e + 4, 16) * 26
    form = np.arange(17).reshape(-1, 1, 1, 1)
    e, sci = form - 4, form == 16
    nd = np.arange(13).reshape(-1, 1, 1)
    wide = ~sci & (e >= 0)  # fixed, the point after digit e
    j = np.arange(12)  # digit j sits in byte 8 + 2 j, the point after it in 9 + 2 j
    keep = np.zeros((17, 13, 2, 40), bool)
    keep[:, :, 1, 0] = True
    keep[..., 1:6] = ~sci & (e < 0) & (j[1:6] <= 1 - e)
    keep[..., 8:32:2] = (j < nd) | (wide & (j <= e))
    keep[..., 9:31:2] = (sci & (j[:11] == 0) & (nd > 1)) | (wide & (j[:11] == e) & (nd > e + 1))
    keep[..., 31:35] = sci
    keep[..., 35] = True
    # No digits is a zero: "0" or "-0" in every form.
    keep[:, 0, :, 1:35] = False
    keep[:, 0, :, 1] = True
    masks = (keep * np.uint8(255)).reshape(-1, 40).view(_U64).T.copy()
    return powers, groups, dot_to_e, lengths, tails.view(_U64).ravel(), head, forms, masks


def _g12_significands(v: np.ndarray, powers: np.ndarray) -> tuple:
    """The decimal exponents x of the values v, the three 4-digit groups of
    their 12-digit significands, and the indices of the values that % must
    format.

    |v| in [1e-99, 1e99) is scaled to s = |v| 10^(11 - x) in [1e11, 1e12)
    with a correctly rounded power: s is within 2.3e-16 s of the exact
    product, two roundings, so away from a decimal tie rint(s) is the
    correctly rounded significand.  Its groups come from exact floor
    divisions of integers below 2^53.  An exact zero, of either sign, has
    the significand 0, so no digits.  NaN, infinities, other values outside
    the range and values within 8.9e-16 s of a tie (four times the error)
    are left to %."""
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-99) & (a < 1e99)
    np.copyto(a, 1.0, where=~fast)
    # floor(log10) is off by one only next to a power of 10; the scaled
    # value's range corrects it.
    x = np.floor(np.log10(a)).astype(np.intp)
    s = a * powers[99 - x]
    x += s >= 1e12
    x -= s < 1e11
    s = a * powers[99 - x]
    m = np.rint(s)
    slow = np.flatnonzero((np.abs(np.abs(s - m) - 0.5) <= 8.9e-16 * s) | ~(fast | zero))
    np.copyto(m, 0.0, where=zero)
    rollover = m == 1e12  # 999999999999.5 and up round to 1e12: 1.0 at x + 1
    np.copyto(m, 1e11, where=rollover)
    x += rollover
    g0 = np.floor(m / 1e8)
    m -= g0 * 1e8
    g1 = np.floor(m / 1e4)
    m -= g1 * 1e4
    return x, [g.astype(np.intp) for g in (g0, g1, m)], slow


def _g12(block: np.ndarray) -> str:
    """The comma-separated lines of an (n, c) float block, every value as
    "%.12g" % v gives it."""
    powers, digit_groups, dot_to_e, lengths, tails, head, forms, masks = _g12_tables()
    rows, cols = block.shape
    v = block.ravel()
    x, groups, slow = _g12_significands(v, powers)
    digits = functools.reduce(np.maximum, [n[g] for n, g in zip(lengths, groups)])
    layout = forms[x + 99] + 2 * digits + np.signbit(v)
    tail = (x + 99).reshape(rows, cols) * 2
    tail[:, -1] += 1
    text = bytearray(40 * v.size)
    out = np.frombuffer(text, _U64).reshape(-1, 5)
    out[:, 0] = head
    out[:, 1] = digit_groups[groups[0]]
    out[:, 2] = digit_groups[groups[1]]
    out[:, 3] = digit_groups[groups[2]] ^ dot_to_e
    out[:, 4] = tails[tail.ravel()]
    for word, mask in enumerate(masks):
        out[:, word] &= mask[layout]
    del x, groups, digits, layout, tail  # freed before the text is copied out
    if slow.size:
        cells = b"".join((b"%.12g" % u).ljust(35, b"\0") for u in v[slow].tolist())
        out.view(np.uint8)[slow, :35] = np.frombuffer(cells, np.uint8).reshape(-1, 35)
    return text.translate(None, b"\0").decode("ascii")


def _csv(header: list[str], table: np.ndarray) -> Iterator[str]:
    """The CSV of an (N, c) float table in parts: the header line, then the
    text of each block of rows, formatted as it is drawn, each value with 12
    significant digits as "%.12g" gives it."""
    yield ",".join(header) + "\n"
    for block in blocks(len(table)):
        yield _g12(table[block])


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """Write the CSV of a table, each block formatted after the last is written."""
    parts = _csv(header, table)
    write_text_atomic(path, next(parts), parts)


def _load_w(source: str, dim: int) -> np.ndarray:
    if source == "identity":
        return np.eye(dim)
    if source == "fourier":
        return dft_matrix(dim)
    return _read_json(source, "unitary parameter", matrix_from_pairs)


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
    doc = channel_to_dict(channel)
    doc["validation"] = validate_channel(channel)[0]
    write_json_atomic(args.out, doc)
    return EXIT_OK


def _entropy_key(base: str, bits: bool) -> str:
    return base.replace("_nats", "_bits") if bits else base


def cmd_analyze(args: argparse.Namespace) -> int:
    kraus = read_channel(args.channel_path)
    validation, gram_spectrum = validate_channel(kraus)
    # The one place --tol is applied: the library reports the residual only.
    cptp_ok = validation["cptp_residual"] <= args.tol
    scale = 1.0 / LN2 if args.bits else 1.0
    k, n_out, n_in = kraus.shape
    report = {"n_in": n_in, "n_out": n_out, "kraus_count": k, "cptp_ok": cptp_ok, **validation}
    # Information measures are meaningless for a non-channel: a non-channel
    # gets the structural fields and nulls.
    values = [None] * 3
    if cptp_ok:
        values = [v * scale for v in information_quantities(kraus, gram_spectrum)]
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
        # choi_measures checks the block once; the capacity bound takes it as accepted.
        neg[block], conc[block], ent[block] = choi_measures(kraus)
        chi[block] = _capacity_bounds(kraus)[1]
    closed_neg, closed_conc = negativity_closed_form(thetas), concurrence_closed_form(thetas)
    table = np.column_stack([thetas, neg, closed_neg, conc, closed_conc, chi * scale, ent * scale])
    header = [
        "theta",
        "negativity_numeric",
        "negativity_closed",
        "concurrence_numeric",
        "concurrence_closed",
        _entropy_key("chi_bound_nats", args.bits),
        _entropy_key("map_entropy_nats", args.bits),
    ]
    _write_csv(args.out, header, table)
    return EXIT_OK


def cmd_bloch(args: argparse.Namespace) -> int:
    thetas, paths = [args.theta], [args.out]
    if args.batch:
        stem, ext = os.path.splitext(args.out)
        thetas = [k * math.pi / 8.0 for k in range(9)]
        paths = [f"{stem}_k{k}{ext or '.csv'}" for k in range(9)]
    members = [_build(argparse.Namespace(**{**vars(args), "theta": t})) for t in thetas]
    # One check and one transfer-matrix contraction for the stack; each
    # image is mapped and written before the next one is made.
    for path, points in zip(paths, _bloch_images(np.stack(members), args.points)):
        _write_csv(path, ["x", "y", "z"], points)
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("dynamics needs at least 2 steps")
    # --steps counts uniform intervals; sampling the endpoints too keeps the
    # grid aligned with the extrema of the driven records.
    times, theta, (negativity, concurrence, map_entropy) = run_trajectory(
        args.family, args.omega, args.t_max, args.steps + 1
    )
    scale = 1.0 / LN2 if args.bits else 1.0
    header = [
        "t",
        "theta",
        "negativity",
        "concurrence",
        _entropy_key("map_entropy_nats", args.bits),
    ]
    table = np.column_stack([times, theta, negativity, concurrence, map_entropy * scale])
    _write_csv(args.out, header, table)
    summary = {
        "family": args.family,
        "omega": args.omega,
        "t_max": args.t_max,
        "steps": args.steps,
        "non_markovianity_positive_variation": positive_variation(negativity),
        "increase_duration": increase_duration(times, negativity),
        "concurrence_positive_variation": positive_variation(concurrence),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qchan`` argument parser, built on the first call.

    Every later call returns the same parser, one per process, so that
    repeated ``main`` calls do not rebuild it.  Parsing leaves it as it was;
    callers must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="qchan",
        description="Quantum-channel toolkit: families, conversions, measures, dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def common(p, bits: bool = False):
        p.add_argument("--out", required=True, help="output path")
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
    common(p_family)

    p_analyze = sub.add_parser("analyze", help="report on a channel JSON file")
    p_analyze.add_argument("--in", dest="channel_path", required=True)
    p_analyze.add_argument("--tol", type=float, default=DEFAULT_TOL, help="completeness tolerance")
    common(p_analyze, bits=True)

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
    MAX_TOL], an empty grid, a grid above MAX_POINTS and a dimension outside
    [2, MAX_DIM] before anything is built."""
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
    dim = getattr(args, "dim", 2)
    if dim < 2:
        raise ValueError(f"--n {dim} is below the dimension floor 2")
    if dim > MAX_DIM:
        raise ValueError(f"--n {dim} is above the dimension cap {MAX_DIM}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return COMMANDS[args.command](args)
    except ChannelFormatError as exc:
        print(f"qchan: input format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except np.linalg.LinAlgError as exc:
        print(f"qchan: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"qchan: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
