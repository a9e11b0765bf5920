"""The benchmark's workloads: seeded inputs, one pass of ``qchan`` command
lines, and a check of every output file.

A seed changes input values only, never the amount of work.  Every check
compares a file with a value computed here by another route than the one
``qchan`` takes: closed forms, the affine Bloch map, or the Gram matrix of
the Kraus operators.  The tolerances are the acceptance suite's, widened
only by the rounding of the 12-significant-digit CSV format.  No check
compares a digest, so a named last-digit change still passes; byte
identity is checked only between repeated runs of one command.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)

CLOSED_FORM_TOL = 1e-9  # qubit-a rows against |cos 2t|/4 and the concurrence form
NON_MARKOVIANITY_TOL = 1e-5  # positive variation against its value per period
BLOCH_TOL = 1e-12  # Bloch rows against the affine image of the Kraus operators
ZERO_COHERENT_TOL = 1e-10  # coherent information of a self-complementary channel
ROUTE_TOL = 1e-9  # any other quantity against its Gram-matrix or eigenvalue route
# The Wootters route takes square roots of eigenvalues that are zero up to
# rounding, so two correct routes can differ by sqrt(1e-13) ~ 3e-7 there.
CONCURRENCE_ROUTE_TOL = 1e-6
# Relative rounding of a value printed with 12 significant digits.
CSV_REL = 1e-11
ENTROPY_FLOOR = 1e-14
RANK_TOL = 1e-10

_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_YY = np.kron(_SIGMA[1], _SIGMA[1])


@dataclass
class Command:
    """One ``qchan`` invocation, the files it writes and the check of them."""

    argv: list
    outputs: list
    check: Callable[[], list]


# --- reference routes, computed from stacks of Kraus operators (..., k, n_out, n_in)


def _entropy(evals) -> np.ndarray:
    ev = np.where(evals > ENTROPY_FLOOR, evals, 1.0)
    return -(ev * np.log(ev)).sum(axis=-1)


def gram(kraus) -> np.ndarray:
    """G_ab = tr(K_a^dagger K_b) / n_in, whose spectrum is the Choi state's."""
    return np.einsum("...aij,...bij->...ab", kraus.conj(), kraus) / kraus.shape[-1]


def map_entropy_ref(kraus) -> np.ndarray:
    return _entropy(np.linalg.eigvalsh(gram(kraus)))


def choi_state_ref(kraus) -> np.ndarray:
    """sum_a |K_a>><<K_a| / n_in on (input copy) (x) (output)."""
    k, n_out, n_in = kraus.shape[-3:]
    vecs = np.swapaxes(kraus, -1, -2).reshape(*kraus.shape[:-3], k, n_in * n_out)
    return np.einsum("...ai,...aj->...ij", vecs, vecs.conj()) / n_in


def negativity_ref(omega) -> np.ndarray:
    """From the transpose of the second factor (qchan transposes the first)."""
    t = omega.reshape(*omega.shape[:-2], 2, 2, 2, 2)
    pt = np.swapaxes(t, -1, -3).reshape(omega.shape)
    return np.maximum(0.0, (np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1) - 1.0) / 2.0)


def concurrence_ref(omega) -> np.ndarray:
    ev = np.linalg.eigvals(omega @ _YY @ omega.conj() @ _YY).real
    lam = np.sqrt(np.sort(np.maximum(ev, 0.0), axis=-1)[..., ::-1])
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1))


def basis_outputs(kraus) -> np.ndarray:
    """Phi(|i><i|) for every input basis vector, stacked on the first axis."""
    return np.einsum("...aji,...aki->...ijk", kraus, kraus.conj())


def holevo_ref(kraus) -> np.ndarray:
    """Holevo quantity of the outputs of the equiprobable basis alphabet."""
    outs = basis_outputs(kraus)
    mixed = _entropy(np.linalg.eigvalsh(outs.mean(axis=-3)))
    parts = _entropy(np.linalg.eigvalsh(outs)).mean(axis=-1)
    return np.maximum(0.0, mixed - parts)


def coherent_information_ref(kraus) -> np.ndarray:
    """S(Phi(1/n)) - S(Phi^c(1/n)); Phi^c(1/n) is the transposed Gram matrix."""
    mixed = basis_outputs(kraus).mean(axis=-3)
    return _entropy(np.linalg.eigvalsh(mixed)) - map_entropy_ref(kraus)


def bloch_image_ref(kraus, points) -> np.ndarray:
    """r -> M r + t with M_ij = tr(s_i Phi(s_j)) / 2 and t_i = tr(s_i Phi(1)) / 2."""
    def phi(x):
        return np.einsum("aij,jk,alk->il", kraus, x, kraus.conj())

    shift = np.array([np.trace(s @ phi(np.eye(2))).real / 2 for s in _SIGMA])
    linear = np.array([[np.trace(s @ phi(t)).real / 2 for t in _SIGMA] for s in _SIGMA])
    return points @ linear.T + shift


def fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    angle = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle), z])


def positive_variation(values) -> float:
    d = np.diff(values)
    return float(d[d > 0].sum())


# --- the channel families, written out from their definitions (any shape of theta)


def _per_sample(entries) -> np.ndarray:
    """Nested (k, 2, 2) entries, each an array over samples -> (samples, k, 2, 2)."""
    return np.moveaxis(np.array(entries, dtype=complex), -1, 0)


def qubit_a(theta, phi=0.0) -> np.ndarray:
    s, c = np.sin(theta), np.cos(theta) * np.exp(1j * phi)
    z, h = np.zeros_like(s), np.full_like(s, SQRT_HALF)
    return _per_sample([[[s, z], [z, h]], [[z, h], [c, z]]])


def qubit_b(theta, phi=0.0) -> np.ndarray:
    s, c = np.sin(theta) * SQRT_HALF, np.cos(theta) * np.exp(1j * phi)
    z, one = np.zeros_like(s), np.ones_like(s)
    return _per_sample([[[one, z], [z, s]], [[z, s], [z, c]]])


def amplitude_damping(p) -> np.ndarray:
    z, one = np.zeros_like(p), np.ones_like(p)
    return _per_sample([[[one, z], [z, np.sqrt(1 - p)]], [[z, np.sqrt(p)], [z, z]]])


def ndim_theta0(n: int) -> np.ndarray:
    ops = np.zeros((n, n, n), dtype=complex)
    ops[0] = np.diag([1.0] + [SQRT_HALF] * (n - 1))
    ops[np.arange(1, n), 0, np.arange(1, n)] = SQRT_HALF
    return ops


def random_channel(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus operators of a random CPTP map: blocks of a phase-fixed QR isometry."""
    g = rng.standard_normal((n * k, n)) + 1j * rng.standard_normal((n * k, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q.reshape(k, n, n)


# --- reading and comparing outputs


def _deviation(actual, expected, rel: float = 0.0) -> float:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return float(np.max(np.abs(actual - expected) - rel * np.abs(expected)))


def _compare(problems: list, what: str, actual, expected, tol: float, rel: float = CSV_REL):
    dev = _deviation(actual, expected, rel)
    if not dev <= tol:
        problems.append(f"{what}: deviation {dev:.3e} > {tol:.0e}")


def read_csv(path, header: list, rows: int, problems: list) -> np.ndarray | None:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if first != header or data.shape != (rows, len(header)):
        problems.append(f"{os.path.basename(path)}: header {first}, shape {data.shape}")
        return None
    return data


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def kraus_from_document(doc) -> np.ndarray:
    return np.array([[[complex(*z) for z in row] for row in op] for op in doc["kraus"]])


# --- workloads


class Trajectory:
    """`qchan dynamics --steps 4096` for the three driven families."""

    name = "trajectory"
    # The highest of p99.9, p99, p95, p90, p75 and p50 with ten command
    # samples beyond it at the pass counts a 30 s run gives, else p50.  It
    # is fixed, so that a faster qchan, which fits more passes into a run, is
    # not measured at a higher percentile.
    TAIL_PERCENTILE = 50.0
    FAMILIES = ("qubit-a", "qubit-b", "ad")
    STEPS = 4096
    HEADER = ["t", "theta", "negativity", "concurrence", "map_entropy_nats"]

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.omega = float(rng.uniform(0.5, 2.0))
        # A power-of-two number of periods keeps the extrema of |cos 2t| on
        # the grid, where the per-period score is exactly 1/2.
        self.periods = int(rng.choice([1, 2, 4, 8]))
        self.t_max = self.periods * math.pi / self.omega
        self.workdir = workdir

    def commands(self) -> list:
        return [self._command(family) for family in self.FAMILIES]

    def _command(self, family: str) -> Command:
        out = os.path.join(self.workdir, f"traj-{family}.csv")
        summary = os.path.join(self.workdir, f"traj-{family}.summary.json")
        argv = ["dynamics", "--family", family, "--omega", repr(self.omega),
                "--t-max", repr(self.t_max), "--steps", str(self.STEPS), "--out", out]
        times = np.linspace(0.0, self.t_max, self.STEPS + 1)
        if family == "ad":
            param = 1.0 - np.exp(-self.omega * times)
            kraus = amplitude_damping(param)
        else:
            param = np.fmod(self.omega * times, math.pi)
            kraus = (qubit_a if family == "qubit-a" else qubit_b)(param)
        omega_states = choi_state_ref(kraus)
        expected = np.column_stack([
            times, param, negativity_ref(omega_states), concurrence_ref(omega_states),
            map_entropy_ref(kraus)])
        return Command(argv, [out, summary], lambda: self._check(family, out, summary, expected))

    def _check(self, family, out, summary_path, expected) -> list:
        problems = []
        rows = read_csv(out, self.HEADER, self.STEPS + 1, problems)
        if rows is None:
            return problems
        theta = expected[:, 1]
        _compare(problems, f"{family} t", rows[:, 0], expected[:, 0], 1e-12)
        _compare(problems, f"{family} theta", rows[:, 1], theta, 1e-12)
        _compare(problems, f"{family} negativity", rows[:, 2], expected[:, 2], ROUTE_TOL)
        _compare(problems, f"{family} concurrence", rows[:, 3], expected[:, 3],
                 CONCURRENCE_ROUTE_TOL)
        _compare(problems, f"{family} map entropy", rows[:, 4], expected[:, 4], ROUTE_TOL)
        summary = read_json(summary_path)
        score = summary["non_markovianity_positive_variation"]
        if family == "qubit-a":
            _compare(problems, "qubit-a negativity closed form", rows[:, 2],
                     np.abs(np.cos(2 * theta)) / 4, CLOSED_FORM_TOL)
            _compare(problems, "qubit-a concurrence closed form", rows[:, 3],
                     np.abs(np.abs(np.sin(theta)) - np.abs(np.cos(theta))) / math.sqrt(2),
                     CLOSED_FORM_TOL)
            _compare(problems, "qubit-a score", score, self.periods / 2, NON_MARKOVIANITY_TOL)
        elif family == "ad":
            # Amplitude damping with a growing decay probability is divisible.
            _compare(problems, "ad score", score, 0.0, NON_MARKOVIANITY_TOL)
        _compare(problems, f"{family} score", score, positive_variation(expected[:, 2]),
                 ROUTE_TOL)
        _compare(problems, f"{family} concurrence score",
                 summary["concurrence_positive_variation"],
                 positive_variation(expected[:, 3]), CONCURRENCE_ROUTE_TOL)
        if not 0.0 <= summary["increase_duration"] <= self.t_max * (1 + 1e-12):
            problems.append(f"{family} increase_duration {summary['increase_duration']}")
        echo = (summary["family"], summary["omega"], summary["t_max"], summary["steps"])
        if echo != (family, self.omega, self.t_max, self.STEPS):
            problems.append(f"{family} summary echoes {echo}")
        return problems


class BlochSweep:
    """`qchan bloch --batch` for both qubit families, and `qchan sweep`."""

    name = "bloch-sweep"
    TAIL_PERCENTILE = 50.0  # 7-11 passes of 3 commands; p75 would need 14
    POINTS = 600
    SWEEP_POINTS = 1001

    def __init__(self, seed: int, workdir: str):
        self.phi = float(np.random.default_rng(seed).uniform(0.0, 2 * math.pi))
        self.workdir = workdir

    def commands(self) -> list:
        return [self._bloch("qubit-a", qubit_a), self._bloch("qubit-b", qubit_b), self._sweep()]

    def _bloch(self, family: str, family_kraus) -> Command:
        out = os.path.join(self.workdir, f"bloch-{family}.csv")
        files = [os.path.join(self.workdir, f"bloch-{family}_k{k}.csv") for k in range(9)]
        argv = ["bloch", "--batch", "--family", family, "--phi", repr(self.phi),
                "--points", str(self.POINTS), "--out", out]
        points = fibonacci_sphere(self.POINTS)
        images = [bloch_image_ref(family_kraus(np.array([k * math.pi / 8.0]), self.phi)[0], points)
                  for k in range(9)]

        def check() -> list:
            problems = []
            for path, image in zip(files, images):
                rows = read_csv(path, ["x", "y", "z"], self.POINTS, problems)
                if rows is not None:
                    _compare(problems, os.path.basename(path), rows, image, BLOCH_TOL, rel=0.0)
            return problems

        return Command(argv, files, check)

    def _sweep(self) -> Command:
        out = os.path.join(self.workdir, "sweep.csv")
        argv = ["sweep", "--points", str(self.SWEEP_POINTS), "--out", out]
        theta = np.linspace(0.0, math.pi / 2, self.SWEEP_POINTS)
        kraus = qubit_a(theta)
        header = ["theta", "negativity_numeric", "negativity_closed", "concurrence_numeric",
                  "concurrence_closed", "chi_bound_nats", "map_entropy_nats"]

        def check() -> list:
            problems = []
            rows = read_csv(out, header, self.SWEEP_POINTS, problems)
            if rows is None:
                return problems
            _compare(problems, "sweep theta", rows[:, 0], theta, 1e-12)
            _compare(problems, "sweep negativity", rows[:, 1], rows[:, 2], CLOSED_FORM_TOL)
            _compare(problems, "sweep concurrence", rows[:, 3], rows[:, 4], CLOSED_FORM_TOL)
            _compare(problems, "sweep negativity_closed", rows[:, 2],
                     np.abs(np.cos(2 * theta)) / 4, 1e-12)
            _compare(problems, "sweep concurrence_closed", rows[:, 4],
                     np.abs(np.sin(theta) - np.cos(theta)) / math.sqrt(2), 1e-12)
            _compare(problems, "sweep chi bound", rows[:, 5], holevo_ref(kraus), ROUTE_TOL)
            _compare(problems, "sweep map entropy", rows[:, 6], map_entropy_ref(kraus), ROUTE_TOL)
            return problems

        return Command(argv, [out], check)


class AnalyzeLarge:
    """`qchan family` then `qchan analyze` at n = 8, 16, 24, 32."""

    name = "analyze-large"
    TAIL_PERCENTILE = 75.0  # 2-4 passes of 20 commands; p90 would need 5
    DIMS = (8, 16, 24, 32)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        # Away from theta = 0 the exploratory family fails completeness, so
        # analyze takes the branch that refuses the measures.
        self.theta = float(rng.uniform(0.2, 1.3))
        self.workdir = workdir
        self.random = {n: random_channel(n, n, rng) for n in self.DIMS}
        for n, ops in self.random.items():
            doc = {"n_in": n, "n_out": n,
                   "kraus": [[[[z.real, z.imag] for z in row] for row in op] for op in ops]}
            with open(self._path(f"random-{n}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def commands(self) -> list:
        cmds = []
        for n in self.DIMS:
            theta0 = ndim_theta0(n)
            cmds.append(self._family(n, "theta0", ["--id", "ndim-theta0"], theta0))
            cmds.append(self._analyze(n, "theta0", theta0))
            cmds.append(self._analyze(n, "random", self.random[n]))
            cmds.append(self._family(
                n, "fourier", ["--id", "ndim", "--w", "fourier", "--theta", repr(self.theta)], None))
            cmds.append(self._analyze(n, "fourier", None))
        return cmds

    def _family(self, n: int, kind: str, args: list, kraus) -> Command:
        out = self._path(f"{kind}-{n}.json")
        argv = ["family", *args, "--n", str(n), "--out", out]

        def check() -> list:
            doc = read_json(out)
            ops = kraus_from_document(doc)
            problems = _structure(f"family {kind} n={n}", doc["validation"], ops, n)
            if kraus is not None:
                _compare(problems, f"family {kind} n={n} kraus", np.abs(ops - kraus), 0.0, 1e-15)
            return problems

        return Command(argv, [out], check)

    def _analyze(self, n: int, kind: str, kraus) -> Command:
        source, out = self._path(f"{kind}-{n}.json"), self._path(f"{kind}-{n}.report.json")
        argv = ["analyze", "--in", source, "--out", out]
        what = f"analyze {kind} n={n}"
        measures = ("map_entropy_nats", "coherent_information_nats", "chi_bound_nats")

        def check() -> list:
            report = read_json(out)
            ops = kraus if kraus is not None else kraus_from_document(read_json(source))
            problems = _structure(what, report, ops, n)
            if report["kraus_count"] != len(ops):
                problems.append(f"{what}: kraus_count {report['kraus_count']}")
            if kind == "fourier":
                if report["cptp_ok"] or any(report[m] is not None for m in measures):
                    problems.append(f"{what}: measures of a non-channel were not refused")
                return problems
            if not report["cptp_ok"]:
                problems.append(f"{what}: a CPTP channel was refused")
                return problems
            _compare(problems, f"{what} map entropy", report["map_entropy_nats"],
                     map_entropy_ref(ops), ROUTE_TOL, 0.0)
            _compare(problems, f"{what} chi bound", report["chi_bound_nats"],
                     holevo_ref(ops), ROUTE_TOL, 0.0)
            if kind == "theta0":
                _compare(problems, f"{what} coherent information",
                         report["coherent_information_nats"], 0.0, ZERO_COHERENT_TOL, 0.0)
            else:
                _compare(problems, f"{what} coherent information",
                         report["coherent_information_nats"], coherent_information_ref(ops),
                         ROUTE_TOL, 0.0)
            return problems

        return Command(argv, [out], check)


def _structure(what: str, fields: dict, ops: np.ndarray, n: int) -> list:
    """Residual, self-complementarity and Choi rank against the Kraus operators."""
    problems = []
    residual = np.abs(np.einsum("aji,ajk->ik", ops.conj(), ops) - np.eye(n)).max()
    _compare(problems, f"{what} cptp_residual", fields["cptp_residual"], residual, 1e-12, 0.0)
    selfcomp = bool(np.abs(ops - ops.transpose(1, 0, 2)).max() <= RANK_TOL)
    rank = int(np.count_nonzero(np.linalg.eigvalsh(gram(ops) * n) > RANK_TOL))
    if (fields["selfcomplementary"], fields["choi_rank"]) != (selfcomp, rank):
        problems.append(f"{what}: selfcomplementary/choi_rank "
                        f"{fields['selfcomplementary']}/{fields['choi_rank']}, "
                        f"expected {selfcomp}/{rank}")
    return problems


WORKLOADS = {w.name: w for w in (Trajectory, BlochSweep, AnalyzeLarge)}
