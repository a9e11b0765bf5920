"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.  Two sub-criteria marked strict-xfail document measured facts
about this family that contradict their nominal targets; the reasons on the
markers state the mathematics.
"""

import math
import time

import numpy as np
import pytest

from qchan import (
    apply,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_to_kraus,
    classical_capacity_lower_bound,
    coherent_information,
    complementary,
    concurrence,
    concurrence_closed_form,
    is_selfcomplementary,
    kraus_to_superop,
    map_entropy,
    negativity,
    negativity_closed_form,
    ndim_family,
    ndim_theta0,
    non_markovianity_measure,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    run_trajectory,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
    von_neumann_entropy,
)
from qchan.cli import main as cli_main

from conftest import random_cptp, random_density_matrix, random_unitary

GRID = np.linspace(0.0, math.pi / 2.0, 100)
SQ2 = 1.0 / math.sqrt(2.0)

FAMILY_MEMBERS = [
    ("qubit-a(0, 0)", qubit_family_a(0.0, 0.0)),
    ("qubit-a(pi/5, 1.3)", qubit_family_a(math.pi / 5, 1.3)),
    ("qubit-a(pi/2, 0)", qubit_family_a(math.pi / 2, 0.0)),
    ("qubit-b(0, 0)", qubit_family_b(0.0, 0.0)),
    ("qubit-b(1.1, 4.2)", qubit_family_b(1.1, 4.2)),
    ("ndim-theta0(2)", ndim_theta0(2)),
    ("ndim-theta0(3)", ndim_theta0(3)),
    ("ndim-theta0(4)", ndim_theta0(4)),
]


def report(number, text):
    print(f"\nACCEPTANCE {number:>3}: PASS - {text}")


def test_criterion_01_negativity_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for theta in GRID:
        omega = choi_state(qubit_family_a(float(theta)))
        worst = max(worst, abs(negativity(omega, (2, 2)) - negativity_closed_form(float(theta))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    report(1, f"negativity matches |cos 2t|/4 on 100-point grid (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_concurrence_closed_form():
    worst = 0.0
    for theta in list(GRID) + [math.pi / 4]:
        omega = choi_state(qubit_family_a(float(theta)))
        worst = max(worst, abs(concurrence(omega) - concurrence_closed_form(float(theta))))
    breaking = concurrence(choi_state(qubit_family_a(math.pi / 4)))
    assert worst <= 1e-9
    assert breaking <= 1e-9
    report(2, f"concurrence matches the closed form incl. the zero at pi/4 (worst {worst:.2e})")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the piecewise variant with radicands 4cos(2t)-1 and 2-cos(2t) is not the Wootters "
        "concurrence of these Choi states: its radicands go negative inside [0, pi/2] and at "
        "t = 0 it gives (sqrt(3)-1)/2 = 0.36603, while the spin-flip product spectrum is "
        "{1/2, 0, 0, 0}, giving 1/sqrt(2) = 0.70711"
    ),
)
def test_criterion_02b_alternative_piecewise_variant():
    variant_at_zero = 0.5 * (math.sqrt(4.0 * math.cos(0.0) - 1.0) - math.sqrt(2.0 - math.cos(0.0)))
    numeric = concurrence(choi_state(qubit_family_a(0.0)))
    assert abs(numeric - variant_at_zero) <= 1e-9


def test_criterion_03_map_entropy_anchor():
    anchor = map_entropy(qubit_family_a(0.0, 0.0))
    assert abs(anchor - 0.56233) <= 1e-4
    worst = 0.0
    for theta in GRID:
        ch = qubit_family_a(float(theta))
        s_map = map_entropy(ch)
        s_out = von_neumann_entropy(apply(ch, np.eye(2) / 2))
        worst = max(worst, abs(s_map - s_out))
    assert worst <= 1e-9
    report(3, f"map entropy anchor {anchor:.5f} nats; equals S at the mixed-state image (worst {worst:.2e})")


def test_criterion_04_entropy_bounds():
    ln2 = math.log(2.0)
    margin = math.inf
    for theta in GRID:
        s = map_entropy(qubit_family_a(float(theta)))
        assert 0.5 * ln2 - 1e-12 <= s <= ln2 + 1e-12
        margin = min(margin, s - 0.5 * ln2)
    assert margin >= 0.2
    for n in range(2, 7):
        s = map_entropy(ndim_theta0(n))
        assert 0.5 * math.log(n) - 1e-12 <= s <= math.log(n) + 1e-12
    report(4, f"(ln N)/2 <= map entropy <= ln N holds; qubit lower-bound gap {margin:.4f} >= 0.2 nats")


def test_criterion_05_zero_coherent_information():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _, ch in FAMILY_MEMBERS:
        for _ in range(100):
            rho = random_density_matrix(ch.shape[-1], rng)
            worst = max(worst, abs(coherent_information(ch, rho)))
    assert worst <= 1e-10
    report(5, f"|coherent information| <= 1e-10 on 100 random states per member (worst {worst:.2e})")


def test_criterion_06_complementarity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        n_in = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        ch = random_cptp(n_in, k, k, rng)  # k = n_out
        twice = complementary(complementary(ch))
        worst = max(
            worst, float(np.abs(kraus_to_superop(twice) - kraus_to_superop(ch)).max())
        )
    assert worst <= 1e-12
    for _, ch in FAMILY_MEMBERS:
        comp = complementary(ch)
        assert np.array_equal(ch, comp)
    report(6, f"complementation is an involution (worst {worst:.2e}) and fixes every family member")


def test_criterion_07_tensor_closure():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta1, theta2 = rng.uniform(0.0, math.pi, size=2)
        phi1, phi2 = rng.uniform(0.0, 2 * math.pi, size=2)
        a = qubit_family_a(float(theta1), float(phi1))
        b = (qubit_family_b if rng.random() < 0.5 else qubit_family_a)(float(theta2), float(phi2))
        assert is_selfcomplementary(tensor_channel(a, b), 1e-12)
    report(7, "tensor products of family members pass the strict check at 1e-12 (20 random pairs)")


def test_criterion_08_choi_rank():
    for label, ch in FAMILY_MEMBERS:
        rank = channel_rank(choi_matrix(ch), 1e-10)
        assert rank == ch.shape[-1], label
    report(8, "Choi rank equals the input dimension for every generated family member")


def test_criterion_09_stinespring_reproduction():
    worst_col = 0.0
    worst_unitary = 0.0
    for theta, phi in [(0.0, 0.0), (0.7, 0.3), (math.pi / 4, 1.0), (math.pi / 2, 5.5)]:
        s, c = math.sin(theta), math.cos(theta)
        tabulated_block = np.array(
            [[s, 0.0], [0.0, SQ2], [0.0, SQ2], [c * np.exp(1j * phi), 0.0]]
        )
        u = stinespring(qubit_family_a(theta, phi))
        worst_col = max(worst_col, float(np.abs(u[:, :2] - tabulated_block).max()))
        worst_unitary = max(worst_unitary, float(np.abs(u.conj().T @ u - np.eye(4)).max()))
    assert worst_col <= 1e-12
    assert worst_unitary <= 1e-10
    report(9, f"dilation block-column matches the tabulated unitary (worst {worst_col:.2e}), U+U = 1")


def _chi_curve():
    return np.array(
        [classical_capacity_lower_bound(qubit_family_a(float(t)), np.eye(2)) for t in GRID]
    )


def test_criterion_10_capacity_bound(tmp_path):
    chi = _chi_curve()
    anchor = chi[0]
    assert abs(anchor - 0.215761) <= 1e-5
    assert (chi > 0.0).all()
    assert np.abs(np.diff(chi)).max() <= 0.05  # continuity along the grid
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--points", "100", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "chi_bound_nats" in header
    report(10, f"chi bound anchored at {anchor:.6f} nats, positive and continuous; curve CSV emitted")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "no uniform 0.05-nat floor exists for the computational-basis Holevo bound: at "
        "t = pi/4 both basis states map to the maximally mixed state, so the bound dips "
        "to zero (minimum over the 100-point grid is about 3e-05 nats)"
    ),
)
def test_criterion_10b_uniform_chi_floor():
    chi = _chi_curve()
    assert (chi > 0.05).all()


def test_criterion_11_concurrence_negativity_ordering():
    margin = math.inf
    for theta in GRID:
        omega = choi_state(qubit_family_a(float(theta)))
        margin = min(margin, concurrence(omega) - negativity(omega, (2, 2)))
    assert margin >= -1e-10
    report(11, f"concurrence >= negativity across the sweep (minimum gap {margin:.4f})")


def test_criterion_12_non_markovianity():
    traj = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=4097)
    variation = non_markovianity_measure(traj, "negativity")
    assert abs(variation - 0.5) <= 1e-5

    damping = run_trajectory("ad", omega=1.0, t_max=5.0, n_steps=512)
    assert non_markovianity_measure(damping, "negativity") == 0.0

    rng = np.random.default_rng(12)
    probes = [np.eye(2) / 2] + [random_density_matrix(2, rng) for _ in range(3)]
    worst = 0.0
    for t in traj.times[::64]:
        ch = qubit_family_a(math.fmod(float(t), math.pi))
        for rho in probes:
            worst = max(worst, abs(coherent_information(ch, rho)))
    assert worst <= 1e-10
    report(
        12,
        f"positive variation {variation:.6f} = 1/2 over one period; damping schedule scores 0; "
        f"coherent information stays 0 (worst {worst:.2e})",
    )


def test_criterion_13_round_trip_fidelity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 4))
        k_min = -(-n_in // n_out)  # smallest environment admitting an isometry
        k = int(rng.integers(k_min, k_min + 4))
        ch = random_cptp(n_in, n_out, k, rng)
        original = kraus_to_superop(ch)
        rebuilt = choi_to_kraus(superop_to_choi(original, n_in, n_out), n_in, n_out)
        worst = max(worst, float(np.abs(kraus_to_superop(rebuilt) - original).max()))
    assert worst <= 1e-9
    report(13, f"kraus -> superop -> choi -> kraus preserves the superoperator (worst {worst:.2e})")


def test_criterion_14_general_family_instrumentation():
    rng = np.random.default_rng(14)
    for n in range(2, 6):
        w = random_unitary(n, rng)
        generated = ndim_family(n, 0.0, w)
        expected = ndim_theta0(n)
        assert np.abs(generated - expected).max() <= 1e-15
    w3 = random_unitary(3, rng)
    qutrit_zero = qutrit_family(0.0, w3)
    assert np.abs(qutrit_zero - ndim_theta0(3)).max() <= 1e-15

    # Away from theta = 0 the exploratory parameterizations are inspected,
    # not asserted: record their validation reports.
    recorded = []
    for theta in (math.pi / 6, math.pi / 4, 1.2):
        rep_q = validate_channel(qutrit_family(float(theta), w3))
        rep_n = validate_channel(ndim_family(4, float(theta), random_unitary(4, rng)))
        assert np.isfinite(rep_q.cptp_residual) and np.isfinite(rep_n.cptp_residual)
        recorded.append((theta, rep_q.cptp_residual, rep_n.cptp_residual))
    lines = "; ".join(f"t={t:.3f}: qutrit {q:.3f}, ndim4 {n:.3f}" for t, q, n in recorded)
    report(14, f"theta = 0 reductions exact; residuals recorded away from 0 ({lines})")
