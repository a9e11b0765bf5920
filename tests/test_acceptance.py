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
    affine_of_channel,
    amplitude_damping,
    apply,
    capacity_lower_bounds,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_to_kraus,
    coherent_information,
    complementary,
    concurrence,
    concurrence_closed_form,
    dft_matrix,
    fibonacci_sphere,
    kraus_to_superop,
    map_entropy,
    negativities,
    negativity,
    negativity_closed_form,
    ndim_family,
    ndim_theta0,
    positive_variation,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    run_trajectory,
    selfcomplementarity_defect,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
    von_neumann_entropy,
)
from qchan.cli import main as cli_main
from qchan.measures import choi_measures

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
        assert selfcomplementarity_defect(tensor_channel(a, b)) <= 1e-12
    report(7, "tensor products of family members pass the strict check at 1e-12 (20 random pairs)")


def test_criterion_08_choi_rank():
    for label, ch in FAMILY_MEMBERS:
        rank = channel_rank(choi_matrix(ch))
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
    return capacity_lower_bounds(qubit_family_a(GRID))


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


def test_criterion_11b_qutrit_residual_entanglement():
    # Beyond qubits: no qutrit member on a 721-point period is separable, for
    # the identity, Fourier and one Haar W.  The floors are 0.3121, 0.2486
    # and 0.1418.
    thetas = np.linspace(0.0, math.pi, 721)
    unitaries = {
        "W = 1": np.eye(3),
        "Fourier W": dft_matrix(3),
        "Haar W": random_unitary(3, np.random.default_rng(5)),
    }
    floors = {}
    for name, w in unitaries.items():
        states = np.array([choi_state(qutrit_family(float(t), w)) for t in thetas])
        floors[name] = float(negativities(states, (3, 3)).min())
    assert min(floors.values()) > 0.1

    # ndim_theta0(n): K_0 = diag(1, s, ..., s) and K_j = s |0><j| (j >= 1),
    # s = 1/sqrt2, so the Choi matrix is |v><v| + sum_j |j0><j0| / 2 with
    # v = |00> + s sum_j |jj>.  Its partial transpose splits into the n - 1
    # blocks [[1/2, s], [s, 0]] on {|j0>, |0j>} and the (n - 1)(n - 2) / 2
    # blocks [[0, 1/2], [1/2, 0]] on {|jk>, |kj>}, j < k, each with one
    # eigenvalue -1/2: n (n - 1) / 4 in all, divided by n for the Choi state.
    worst = max(
        abs(negativity(choi_state(ndim_theta0(n)), (n, n)) - (n - 1) / 4) for n in range(2, 9)
    )
    assert worst <= 1e-12
    lines = ", ".join(f"{name} {floor:.4f}" for name, floor in floors.items())
    report(
        "11b",
        f"qutrit Choi negativity stays above 0.1 over [0, pi] ({lines}); "
        f"ndim-theta0 has (n - 1)/4 for n = 2..8 (worst {worst:.1e})",
    )


def test_criterion_12_non_markovianity():
    times, _, records = run_trajectory("qubit-a", omega=1.0, t_max=math.pi, n_steps=4097)
    variation = positive_variation(records[0])  # the negativity record
    assert abs(variation - 0.5) <= 1e-5

    _, _, damping = run_trajectory("ad", omega=1.0, t_max=5.0, n_steps=512)
    assert positive_variation(damping[0]) == 0.0

    rng = np.random.default_rng(12)
    probes = [np.eye(2) / 2] + [random_density_matrix(2, rng) for _ in range(3)]
    worst = 0.0
    for t in times[::64]:
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

    # Away from theta = 0 the ndim parameterization is exploratory: its
    # validation reports are recorded, not asserted.
    recorded = []
    for theta in (math.pi / 6, math.pi / 4, 1.2):
        rep_n = validate_channel(ndim_family(4, float(theta), random_unitary(4, rng)))[0]
        assert np.isfinite(rep_n["cptp_residual"])
        recorded.append((theta, rep_n["cptp_residual"]))
    lines = "; ".join(f"t={t:.3f}: {n:.3f}" for t, n in recorded)

    # The qutrit family is a self-complementary channel at every theta: CPTP,
    # symmetric, and of zero coherent information (criterion 5).
    rho = random_density_matrix(3, rng)
    worst_residual = worst_coherent = 0.0
    for theta in GRID:
        ch = qutrit_family(float(theta), w3)
        assert selfcomplementarity_defect(ch) == 0.0
        worst_residual = max(worst_residual, validate_channel(ch)[0]["cptp_residual"])
        for state in (np.eye(3) / 3, rho):
            worst_coherent = max(worst_coherent, abs(coherent_information(ch, state)))
    assert worst_residual <= 1e-14
    assert worst_coherent <= 1e-12
    report(
        14,
        f"theta = 0 reductions exact; qutrit members CPTP (worst residual {worst_residual:.1e}), "
        f"defect 0 and |coherent information| <= {worst_coherent:.1e} on the grid; ndim4 "
        f"residuals recorded away from 0 ({lines})",
    )


def test_criterion_15_residual_coherence():
    # Baumgratz, Cramer and Plenio, PRL 113, 140401 (2014): the l1 coherence
    # of a qubit state is sqrt(x^2 + y^2) of its Bloch vector.
    sphere = fibonacci_sphere(50_000)
    worst_attained, worst_excess = 0.0, -math.inf
    for phi in (0.0, 0.9):
        for theta in list(np.linspace(0.0, math.pi, 25)) + [math.pi / 4, 3 * math.pi / 4]:
            s, c = math.sin(theta), math.cos(theta)
            # qubit-a: |s w + c e^{-i phi} conj(w)| / sqrt 2 at |w| <= 1,
            # largest where the two phases align.
            half = phi / 2 if s * c >= 0 else (phi + math.pi) / 2
            a_form = (abs(s) + abs(c)) / math.sqrt(2.0)
            a_best = np.array([math.cos(half), math.sin(half), 0.0])
            # qubit-b: |s| |w + (1 - z) c e^{-i phi}| / sqrt 2 with |w| =
            # sqrt(1 - z^2), largest at z = -|c| / sqrt(1 + c^2).
            root = math.sqrt(1.0 + c * c)
            sign = 1.0 if c >= 0 else -1.0
            b_form = abs(s) * (abs(c) + root) / math.sqrt(2.0)
            b_best = np.array([sign * math.cos(phi) / root, sign * math.sin(phi) / root, -abs(c) / root])
            for family, form, best in (
                (qubit_family_a, a_form, a_best),
                (qubit_family_b, b_form, b_best),
            ):
                linear, shift = affine_of_channel(family(float(theta), phi))
                rows, offset = linear[:2], shift[:2]
                worst_attained = max(worst_attained, abs(float(np.linalg.norm(rows @ best + offset)) - form))
                excess = float(np.linalg.norm(sphere @ rows.T + offset, axis=1).max()) - form
                worst_excess = max(worst_excess, excess)
    assert worst_attained <= 1e-12
    assert worst_excess <= 1e-12
    # Coherence survives where entanglement is broken: at pi/4 the Choi
    # negativity and concurrence of qubit-a vanish (criteria 1 and 2), and
    # the largest output coherence is 1.
    linear, shift = affine_of_channel(qubit_family_a(math.pi / 4))
    coherence = float(np.linalg.norm(linear[:2] @ [1.0, 0.0, 0.0] + shift[:2]))
    omega = choi_state(qubit_family_a(math.pi / 4))
    assert abs(coherence - 1.0) <= 1e-12
    assert negativity(omega, (2, 2)) <= 1e-9 and concurrence(omega) <= 1e-9
    report(
        15,
        f"largest output l1 coherence attains its closed forms (worst {worst_attained:.2e}) and no "
        f"sphere point exceeds them (worst excess {worst_excess:.2e}); qubit-a keeps coherence 1 at "
        "pi/4, where its Choi state is separable",
    )


def test_criterion_16_approximate_copy_machine():
    # The dilation V maps a qubit into output (x) environment, and both
    # marginals are Phi(rho): V is a symmetric 1 -> 2 cloner whose copies
    # have the channel's fidelity.  For a Bloch map r -> A r + b the mean
    # fidelity over the sphere is 1/2 + tr A / 6 and over the equator
    # 1/2 + (A_xx + A_yy) / 4.
    sq2 = math.sqrt(2.0)
    universal_forms = (
        (qubit_family_a, lambda t: 0.5 + sq2 / 6 * math.sin(t) - math.cos(2 * t) / 12),
        (qubit_family_b, lambda t: 7 / 12 + sq2 / 6 * math.sin(t) + math.cos(t) ** 2 / 12),
    )
    # Optimal phase-covariant 1 -> 2 qubit cloner (Bruss et al., PRA 62,
    # 012302, 2000) and optimal universal one (Buzek and Hillery, PRA 54,
    # 1844, 1996).
    equatorial_optimum, universal_optimum = 0.5 + math.sqrt(1 / 8), 5 / 6
    worst_form, equatorial_excess, universal_best = 0.0, -math.inf, 0.0
    for phi in (0.0, 0.9, math.pi / 2):
        for theta in np.linspace(0.0, math.pi, 201):
            t = float(theta)
            for family, universal in universal_forms:
                linear, _ = affine_of_channel(family(t, phi))
                equatorial = 0.5 + (linear[0, 0] + linear[1, 1]) / 4
                mean = 0.5 + np.trace(linear) / 6
                worst_form = max(
                    worst_form,
                    abs(equatorial - (0.5 + sq2 / 4 * math.sin(t))),
                    abs(mean - universal(t)),
                )
                equatorial_excess = max(equatorial_excess, equatorial - equatorial_optimum)
                universal_best = max(universal_best, mean)
    assert worst_form <= 1e-12
    assert equatorial_excess <= 1e-12 and universal_best <= universal_optimum
    for family, _ in universal_forms:
        linear, _ = affine_of_channel(family(math.pi / 2, 0.0))
        assert abs(0.5 + (linear[0, 0] + linear[1, 1]) / 4 - equatorial_optimum) <= 1e-15

    # Both copies: the output and environment marginals of V rho V^dagger.
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    sphere = fibonacci_sphere(100)
    inputs = (np.eye(2) + np.einsum("pi,ijk->pjk", sphere, paulis)) / 2
    worst_copies, worst_affine = 0.0, 0.0
    for phi in (0.0, 0.9):
        for theta in np.linspace(0.0, math.pi, 9):
            for family, _ in universal_forms:
                kraus = family(float(theta), phi)
                isometry = stinespring(kraus)[:, :2]
                linear, shift = affine_of_channel(kraus)
                for r, rho in zip(sphere, inputs):
                    joint = (isometry @ rho @ isometry.conj().T).reshape(2, 2, 2, 2)
                    # Tracing out the environment (axes 0, 2), then the system.
                    output, environment = (
                        float(np.trace(rho @ np.trace(joint, axis1=a, axis2=a + 2)).real)
                        for a in (0, 1)
                    )
                    worst_copies = max(worst_copies, abs(output - environment))
                    worst_affine = max(worst_affine, abs(output - (1 + r @ (linear @ r + shift)) / 2))
    assert worst_copies <= 1e-12 and worst_affine <= 1e-12

    # Werner's optimal universal 1 -> 2 cloner in dimension n (PRA 58, 1827,
    # 1998) bounds ndim-theta0, whose mean fidelity is (n F_e + 1) / (n + 1)
    # with entanglement fidelity F_e = sum_a |tr K_a|^2 / n^2 (Nielsen, Phys.
    # Lett. A 303, 249, 2002).
    gaps = []
    for n in range(2, 17):
        kraus = ndim_theta0(n)
        entanglement_fidelity = float(np.sum(np.abs(np.trace(kraus, axis1=1, axis2=2)) ** 2)) / n**2
        assert abs(entanglement_fidelity - (1 + (n - 1) / sq2) ** 2 / n**2) <= 1e-12
        gaps.append((n + 3) / (2 * (n + 1)) - (n * entanglement_fidelity + 1) / (n + 1))
    assert min(gaps) > 0.0
    report(
        16,
        f"both dilation marginals copy with one fidelity (worst {worst_copies:.2e}); equatorial "
        f"1/2 + (sqrt 2/4) sin t and universal closed forms hold (worst {worst_form:.2e}); the "
        f"optimal phase-covariant cloner is reached at pi/2, 5/6 is never passed, and ndim-theta0 "
        f"stays below Werner's bound for n = 2..16 (smallest gap {min(gaps):.4f})",
    )


def test_criterion_17_trace_distance_backflow():
    # BLP measure (Breuer, Laine and Piilo, PRL 103, 210401, 2009): the total
    # increase of the trace distance of one fixed pair of inputs.  Under a
    # Bloch map r -> A r + b the pure pair +-r has outputs at trace distance
    # |A r|, and orthogonal pure pairs are optimal for qubits (Wissmann et
    # al., PRA 86, 062108, 2012).  The axis pairs give the closed values; no
    # pair of a Fibonacci sample may beat the best of them.
    thetas = np.linspace(0.0, math.pi, 2049)
    sphere = fibonacci_sphere(2000)

    def linear_maps(build, params):
        return np.array([affine_of_channel(build(float(p)))[0] for p in params])

    def axis_increases(linear):
        return [positive_variation(d) for d in np.linalg.norm(linear, axis=1).T]

    # qubit-a at phi = 0: A = diag(sin(t + pi/4), -cos(t + pi/4), -cos(2t) / 2).
    linear = linear_maps(qubit_family_a, thetas)
    closed = np.zeros_like(linear)
    closed[:, 0, 0] = np.sin(thetas + math.pi / 4)
    closed[:, 1, 1] = -np.cos(thetas + math.pi / 4)
    closed[:, 2, 2] = -np.cos(2 * thetas) / 2
    worst_closed = float(np.abs(linear - closed).max())
    assert worst_closed <= 1e-12

    # family, phi: the increase of each axis pair; None where no closed value is held.
    expected = {
        (qubit_family_a, 0.0): (1.0, 1.0, 1.0),
        (qubit_family_a, 0.9): (None, None, 1.0),
        (qubit_family_b, 0.0): (SQ2, SQ2, 0.5),
        (qubit_family_b, 0.9): (SQ2, SQ2, 0.5),
    }
    worst_axis, worst_excess, best_sampled = 0.0, -math.inf, {}
    for (family, phi), values in expected.items():
        linear = linear_maps(lambda t: family(t, phi), thetas)
        axes = axis_increases(linear)
        for got, want in zip(axes, values):
            if want is not None:
                worst_axis = max(worst_axis, abs(got - want))
        gram = np.einsum("tji,tjk->tik", linear, linear)
        distance = np.sqrt(np.einsum("tij,pi,pj->tp", gram, sphere, sphere))
        sampled = np.maximum(np.diff(distance, axis=0), 0.0).sum(axis=0).max()
        worst_excess = max(worst_excess, sampled - max(axes))
        best_sampled[family.__name__] = max(best_sampled.get(family.__name__, 0.0), sampled)
    assert worst_axis <= 1e-12
    assert worst_excess <= 1e-12

    # Amplitude damping on the schedule p = 1 - exp(-0.7 t): no backflow.
    times = np.linspace(0.0, 5.0, 2049)
    damping = axis_increases(linear_maps(amplitude_damping, 1.0 - np.exp(-0.7 * times)))
    assert max(damping) <= 1e-12
    report(
        17,
        f"BLP trace-distance backflow per period: qubit-a's axis pairs gain 1 and qubit-b's x, y "
        f"pairs 1/sqrt 2 (worst {worst_axis:.2e}; A of qubit-a within {worst_closed:.2e} of its "
        f"closed form); no sampled pair gains more (best {best_sampled['qubit_family_a']:.5f} "
        f"and {best_sampled['qubit_family_b']:.5f}); amplitude damping gains {max(damping):.1e}",
    )


def test_criterion_17b_volume_of_accessible_states():
    # Lorenzo, Plastina and Paternostro, PRA 88, 020102(R), 2013: the image
    # of the Bloch ball under r -> A r + b has volume proportional to
    # |det A|, and any increase of |det A(t)| witnesses non-Markovianity.
    # The measure is the total increase over one period.
    thetas = np.linspace(0.0, math.pi, 2049)

    def determinants(build, params):
        return np.array([np.linalg.det(affine_of_channel(build(float(p)))[0]) for p in params])

    # family: (whether det A keeps its sign, the closed form, the increase per period).
    closed = {
        qubit_family_a: (False, np.cos(2 * thetas) ** 2 / 4, 0.5),
        qubit_family_b: (True, np.sin(thetas) ** 2 * (1 + np.cos(thetas) ** 2) / 4, 0.25),
    }
    worst_det, worst_increase, increases = 0.0, 0.0, {}
    for family, (signed, form, increase) in closed.items():
        for phi in (0.0, 0.9):
            det = determinants(lambda t: family(t, phi), thetas)
            worst_det = max(worst_det, float(np.abs((det if signed else np.abs(det)) - form).max()))
            got = positive_variation(np.abs(det))
            worst_increase = max(worst_increase, abs(got - increase))
            increases[family.__name__] = got
    assert worst_det <= 1e-12
    assert worst_increase <= 1e-12

    # Amplitude damping on the schedule p = 1 - exp(-0.7 t): det A = (1 - p)^2 only falls.
    times = np.linspace(0.0, 5.0, 2049)
    damping = positive_variation(np.abs(determinants(amplitude_damping, 1.0 - np.exp(-0.7 * times))))
    assert damping <= 1e-12
    report(
        "17b",
        f"volume of accessible states: |det A| gains {increases['qubit_family_a']:.12f} per period "
        f"for qubit-a and {increases['qubit_family_b']:.12f} for qubit-b (det A within "
        f"{worst_det:.1e} of its closed forms at phi = 0, 0.9); amplitude damping gains {damping:.1e}",
    )


def test_criterion_17c_cp_divisibility():
    # Rivas, Huelga and Plenio, PRL 105, 050403, 2010: the evolution is
    # CP-divisible on a grid exactly when every intermediate map Lambda =
    # S(t2) S(t1)^-1 between neighbouring samples has a PSD Choi matrix.
    # Steps from a near-singular S(t1) have no reliable Lambda and are skipped.
    def smallest_choi_eigenvalues(stack):
        superops = np.array([kraus_to_superop(ch) for ch in stack])
        kept = np.linalg.cond(superops[:-1]) <= 1e8
        steps = superops[1:][kept] @ np.linalg.inv(superops[:-1][kept])
        choi = np.array([superop_to_choi(step, 2, 2) for step in steps])
        return np.linalg.eigvalsh(choi)[:, 0], kept

    thetas = np.linspace(0.0, math.pi, 4097)
    step = thetas[1]
    # family: (skipped steps, the smallest violation to leading order in the step).
    expected = {qubit_family_a: (2, step**2 / 4), qubit_family_b: (1, step**2 / 2)}
    closest = {}
    for family, (skips, violation) in expected.items():
        for phi in (0.0, 0.9):
            stack = family(thetas, phi)
            smallest, kept = smallest_choi_eigenvalues(stack)
            assert len(kept) - kept.sum() == skips, (family.__name__, phi)
            # Every step that is not skipped breaks CP, where the negativity
            # falls as well as where it rises.
            assert (smallest < -1e-12).all(), (family.__name__, phi)
            assert abs(-smallest.max() / violation - 1.0) <= 1e-3
            closest[family.__name__] = float(smallest.max())
            # A rise of the Choi negativity implies a step that is not CP.
            rises = (np.diff(choi_measures(stack)[0]) > 0)[kept]
            assert rises.any() and (smallest[rises] < -1e-12).all()

    # Amplitude damping on the schedule p = 1 - exp(-0.7 t) is CP-divisible.
    times = np.linspace(0.0, 5.0, 4097)
    smallest, kept = smallest_choi_eigenvalues(amplitude_damping(1.0 - np.exp(-0.7 * times)))
    assert kept.all()
    assert smallest.min() >= -1e-12
    report(
        "17c",
        f"CP divisibility: qubit-a breaks it at all 4094 kept steps (2 skipped) and qubit-b at all "
        f"4095 (1 skipped), closest {closest['qubit_family_a']:.3e} and "
        f"{closest['qubit_family_b']:.3e}, every negativity rise among them; amplitude damping "
        f"is CP-divisible (smallest Choi eigenvalue {smallest.min():.1e})",
    )


def test_criterion_17d_qutrit_non_markovianity():
    # Beyond qubits: the qutrit family driven over one period [0, pi] at
    # 1025 points, for the identity, Fourier and one Haar W.  CP divisibility
    # as in 17c.  The volume of accessible states as in 17b, with the 8 x 8
    # block A_ij = tr(g_i Phi(g_j)) in the generalized Gell-Mann basis,
    # tr(g_i g_j) = delta_ij.
    thetas = np.linspace(0.0, math.pi, 1025)
    unitaries = {
        "W = 1": np.eye(3),
        "Fourier W": dft_matrix(3),
        "Haar W": random_unitary(3, np.random.default_rng(5)),
    }
    basis = []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        e = np.zeros((3, 3))
        e[j, k] = 1 / math.sqrt(2)
        basis += [e + e.T, -1j * e + 1j * e.T]
    basis += [np.diag([1.0, -1.0, 0.0]) / math.sqrt(2), np.diag([1.0, 1.0, -2.0]) / math.sqrt(6)]
    rows = np.array(basis).reshape(8, 9)
    eps = np.finfo(float).eps
    weakest, dets, increases = {}, {}, {}
    for name, w in unitaries.items():
        superops = np.array([kraus_to_superop(qutrit_family(float(t), w)) for t in thetas])
        cond = np.linalg.cond(superops[:-1])
        kept = cond <= 1e8
        steps = superops[1:][kept] @ np.linalg.inv(superops[:-1][kept])
        smallest = np.linalg.eigvalsh(np.array([superop_to_choi(m, 3, 3) for m in steps]))[:, 0]
        # One step, from theta = pi/2, where S is singular, is skipped.  Every
        # kept step breaks CP by more than 1e3 times the rounding eps cond(S)
        # of its Lambda.
        assert (~kept).sum() == 1, name
        assert (smallest < -np.maximum(1e-12, 1e3 * eps * cond[kept])).all(), name
        weakest[name] = float(smallest.max())
        det = dets[name] = np.abs(np.linalg.det((rows.conj() @ superops @ rows.T).real))
        increases[name] = positive_variation(det)
        # |det A| is 1/64 at both ends of the period and 0 at theta = pi/2.
        assert abs(det[0] - 1 / 64) <= 1e-16 and abs(det[-1] - 1 / 64) <= 1e-16 and det[512] <= 1e-60
        assert increases[name] >= 1 / 64, name

    # At W = 1, det A = c^8 q(c^2) / 64, c = cos(theta), q = (9 - 6 sqrt2)
    # (x^3 - 2 x^2 + (7 + 2 sqrt2) x / 3 - 1/3), derived symbolically from
    # the family's Kraus operators; q(1) = 1.  q has one real root x0 =
    # 0.10855, so |det A| rises from 0 at theta = pi/2 to a bump of h =
    # 2.894e-8, where (x^4 q)' = 0, falls to 0 at cos^2 = x0, and only then
    # climbs to 1/64: the exact increase per period is 1/64 + 2h, not 1/64.
    root2 = math.sqrt(2)
    q = (9 - 6 * root2) * np.array([1.0, -2.0, (7 + 2 * root2) / 3, -1 / 3])
    x = next(r.real for r in np.roots(q * [7, 6, 5, 4]) if r.imag == 0 and 0 < r.real < 1)
    h = -(x**4) * np.polyval(q, x) / 64
    c2 = np.cos(thetas) ** 2
    closed = np.abs(c2**4 * np.polyval(q, c2)) / 64
    assert np.abs(dets["W = 1"] - closed).max() <= 1e-12
    assert abs(increases["W = 1"] - positive_variation(closed)) <= 1e-12
    # The grid catches both bumps, each to within its step.
    assert 1 / 64 + h < increases["W = 1"] <= 1 / 64 + 2 * h
    lines = ", ".join(f"{name} {weakest[name]:.2e} and {increases[name]:.5f}" for name in unitaries)
    report(
        "17d",
        f"qutrit CP divisibility fails at all 1023 kept steps (1 skipped) and |det A| gains at "
        f"least 1/64 per period (weakest violation and gain: {lines}); at W = 1 the exact gain "
        f"is 1/64 + 2h, h = {h:.4e}, and the grid gives 1/64 + {increases['W = 1'] - 1 / 64:.3e}",
    )
