import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qchan import (
    DEFAULT_TOL,
    apply,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_to_kraus,
    complementary,
    concurrences,
    identity_channel,
    is_selfcomplementary,
    kraus_to_superop,
    ndim_theta0,
    partial_transpose,
    qubit_family_a,
    qubit_family_b,
    selfcomplementarity_defect,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
    validate_states,
)
from qchan.families import FAMILIES
from qchan.serialize import channel_to_dict, read_channel, write_json_atomic

from conftest import random_cptp, random_density_matrix

SQ2 = 1.0 / np.sqrt(2.0)


def depolarizing_qubit():
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    return np.array([p / 2 for p in paulis])


def unitarity_defect(u):
    """max |U^dagger U - 1|."""
    return np.abs(u.conj().T @ u - np.eye(len(u))).max()


def family_choi_by_hand(theta):
    """Independent construction of the family Choi matrix, entry by entry."""
    s, c = np.sin(theta), np.cos(theta)
    return np.array(
        [
            [s * s, 0, 0, s * SQ2],
            [0, c * c, c * SQ2, 0],
            [0, c * SQ2, 0.5, 0],
            [s * SQ2, 0, 0, 0.5],
        ],
        dtype=complex,
    )


# ---------------------------------------------------------------- apply


def test_apply_dephasing_removes_coherences():
    rho = np.full((2, 2), 0.5)
    out = apply(qubit_family_b(0.0), rho)
    assert np.abs(out - np.diag([0.5, 0.5])).max() <= 1e-12


def test_apply_identity_is_identity(rng):
    rho = random_density_matrix(3, rng)
    out = apply(identity_channel(3), rho)
    assert np.abs(out - rho).max() <= 1e-12


def test_apply_family_to_maximally_mixed():
    out = apply(qubit_family_a(0.0), np.eye(2) / 2)
    assert np.abs(out - np.diag([0.25, 0.75])).max() <= 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        apply(qubit_family_a(0.3), np.eye(3) / 3)


def test_apply_refuses_incomplete_kraus_set():
    broken = np.array([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="trace preserving"):
        apply(broken, np.eye(2) / 2)


def test_apply_preserves_trace_for_random_channels(rng):
    for _ in range(20):
        ch = random_cptp(3, 2, 4, rng)
        rho = random_density_matrix(3, rng)
        out = apply(ch, rho)
        assert abs(np.trace(out) - 1.0) <= 1e-10


# ------------------------------------------------------- complementary


def test_complementary_fixes_family_members():
    for theta, phi in [(0.0, 0.0), (0.9, 2.1), (np.pi / 2, 0.0), (np.pi / 4, 5.0)]:
        ch = qubit_family_a(theta, phi)
        comp = complementary(ch)
        assert np.array_equal(ch, comp)


def test_complementary_of_identity_is_full_trace_map():
    comp = complementary(identity_channel(2))
    assert comp.shape == (2, 1, 2)
    assert np.array_equal(comp[0], np.array([[1.0, 0.0]], dtype=complex))
    assert np.array_equal(comp[1], np.array([[0.0, 1.0]], dtype=complex))


def test_complementary_is_involution_on_random_channels(rng):
    for n, k in [(2, 2), (3, 3), (2, 4)]:
        ch = random_cptp(n, k, k, rng)  # k operators of shape (k, n): k == n_out
        twice = complementary(complementary(ch))
        diff = np.abs(kraus_to_superop(twice) - kraus_to_superop(ch)).max()
        assert diff <= 1e-12


def test_selfcomplementary_verdicts():
    assert selfcomplementarity_defect(qubit_family_a(1.1, 0.4)) <= 1e-12
    assert is_selfcomplementary(qubit_family_a(1.1, 0.4))
    assert not is_selfcomplementary(identity_channel(2))
    assert not is_selfcomplementary(depolarizing_qubit())
    assert selfcomplementarity_defect(identity_channel(2)) == np.inf


def test_selfcomplementary_channels_act_like_their_complement(rng):
    ch = qubit_family_a(0.77, 1.3)
    comp = complementary(ch)
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        a = apply(ch, rho)
        b = apply(comp, rho)
        assert np.abs(a - b).max() <= 1e-10


# ------------------------------------------------------- conversions


def test_superop_of_identity_and_dephasing():
    assert np.array_equal(kraus_to_superop(identity_channel(2)), np.eye(4))
    s = kraus_to_superop(qubit_family_b(0.0))
    assert np.abs(s - np.diag([1.0, 0.0, 0.0, 1.0])).max() <= 1e-12


def test_superop_of_family_has_expected_entry():
    s = kraus_to_superop(qubit_family_a(np.pi / 2))
    assert abs(s[0, 3] - 0.5) <= 1e-12


def test_choi_of_identity_is_unnormalized_bell():
    c = choi_matrix(identity_channel(2))
    v = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.abs(c - np.outer(v, v)).max() <= 1e-12


def test_choi_of_family_matches_hand_construction():
    for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2):
        got = choi_matrix(qubit_family_a(theta))
        assert np.abs(got - family_choi_by_hand(theta)).max() <= 1e-12


def test_choi_partial_trace_is_identity():
    d = choi_matrix(qubit_family_a(0.0))
    assert np.abs(np.einsum("ikjk->ij", d.reshape(2, 2, 2, 2)) - np.eye(2)).max() <= 1e-12


def test_reshuffle_round_trip_on_random_matrices(rng):
    for n_in, n_out in [(2, 2), (2, 3), (3, 2)]:
        m = rng.standard_normal((n_out**2, n_in**2)) + 1j * rng.standard_normal(
            (n_out**2, n_in**2)
        )
        t = superop_to_choi(m, n_in, n_out).reshape(n_in, n_out, n_in, n_out)
        back = t.transpose(1, 3, 0, 2).reshape(n_out**2, n_in**2)
        assert np.array_equal(back, m)


def test_superop_choi_round_trip():
    s = kraus_to_superop(qubit_family_a(0.4, 0.2))
    back = superop_to_choi(s, 2, 2).reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
    assert np.array_equal(back, s)


def test_choi_to_kraus_identity():
    ks = choi_to_kraus(choi_matrix(identity_channel(2)), 2, 2)
    assert len(ks) == 1
    op = ks[0]
    assert np.abs(op @ op.conj().T - np.eye(2)).max() <= 1e-10


def test_choi_to_kraus_family_has_two_operators():
    ks = choi_to_kraus(choi_matrix(qubit_family_a(0.8, 0.1)), 2, 2)
    assert len(ks) == 2


def test_choi_to_kraus_rejects_non_psd():
    bad = choi_matrix(identity_channel(2)) - 0.5 * np.eye(4)
    with pytest.raises(ValueError, match="PSD"):
        choi_to_kraus(bad, 2, 2)


def test_round_trip_kraus_choi_kraus_on_random_channels(rng):
    for _ in range(15):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        ch = random_cptp(n_in, n_out, k, rng)
        rebuilt = choi_to_kraus(superop_to_choi(kraus_to_superop(ch), n_in, n_out), n_in, n_out)
        diff = np.abs(kraus_to_superop(rebuilt) - kraus_to_superop(ch)).max()
        assert diff <= 1e-9


def test_channel_rank_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        channel_rank(np.array([[0, 1], [0, 0]]))


def test_channel_rank_values():
    assert channel_rank(choi_matrix(identity_channel(2))) == 1
    assert channel_rank(choi_matrix(qubit_family_a(0.37, 4.0))) == 2
    assert channel_rank(choi_matrix(depolarizing_qubit())) == 4


# ------------------------------------------------------- stinespring


def test_stinespring_matches_tabulated_unitary_block_column():
    for theta, phi in [(0.7, 0.3), (0.0, 0.0), (np.pi / 2, 1.0)]:
        s, c = np.sin(theta), np.cos(theta)
        tabulated = np.array(
            [
                [s, 0, 0, -c * np.exp(-1j * phi)],
                [0, SQ2, SQ2, 0],
                [0, SQ2, -SQ2, 0],
                [c * np.exp(1j * phi), 0, 0, s],
            ]
        )
        u = stinespring(qubit_family_a(theta, phi))
        assert np.abs(u[:, :2] - tabulated[:, :2]).max() <= 1e-12
        assert unitarity_defect(u) <= 1e-10


def test_stinespring_trivial_channel():
    u = stinespring(identity_channel(1))
    assert np.array_equal(u, np.eye(1))


def test_stinespring_random_channels_are_unitary_with_exact_readback(rng):
    for n in (1, 2, 3):
        for k in range(1, 10):
            ch = random_cptp(n, n, k, rng)
            u = stinespring(ch)
            assert unitarity_defect(u) <= 1e-12
            back = u[:, :n].reshape(k, n, n)
            assert np.array_equal(back, ch)


def test_stinespring_rejects_incomplete_channel():
    broken = np.array([np.eye(2, dtype=complex) * 0.5])
    with pytest.raises(ValueError, match="not trace preserving"):
        stinespring(broken)


# ------------------------------------------------------- algebra


def test_tensor_preserves_selfcomplementarity():
    a = qubit_family_a(0.3, 1.0)
    b = qubit_family_a(1.2, 0.0)
    assert selfcomplementarity_defect(tensor_channel(a, b)) <= 1e-12


def test_tensor_with_trivial_channel_is_identity_on_superop():
    ch = qubit_family_a(0.5)
    t = tensor_channel(ch, identity_channel(1))
    assert np.abs(kraus_to_superop(t) - kraus_to_superop(ch)).max() <= 1e-12


def test_tensor_dimension_bookkeeping():
    t = tensor_channel(qubit_family_a(0.1), qubit_family_a(0.2))
    assert t.shape == (4, 4, 4)


def test_validate_channel_cptp_verdicts():
    ok = validate_channel(qubit_family_a(0.8, 0.8))
    assert ok.cptp_residual <= 1e-12
    bad = validate_channel(np.array([np.eye(2, dtype=complex)] * 2))
    assert abs(bad.cptp_residual - 1.0) <= 1e-12
    for n in range(2, 7):
        assert validate_channel(ndim_theta0(n)).cptp_residual <= DEFAULT_TOL


def test_validate_channel_report():
    rep = validate_channel(qubit_family_a(0.25, 0.75))
    assert rep.cptp_residual <= DEFAULT_TOL and rep.selfcomplementary and rep.choi_rank == 2


def test_choi_state_is_valid_density_matrix():
    omega = choi_state(qubit_family_a(1.3, 2.2))
    assert omega.shape == (4, 4)
    validate_states(omega[None])


@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_family_choi_rank_is_two_everywhere(theta, phi):
    assert channel_rank(choi_matrix(qubit_family_a(theta, phi))) == 2


def test_kraus_array_shape_validation():
    # Each public function coerces its channel at entry with
    # channels._as_kraus; these are some of them.
    for entry in (validate_channel, complementary, kraus_to_superop, choi_state, channel_to_dict):
        with pytest.raises(ValueError, match="shape"):
            entry((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
        with pytest.raises(ValueError, match=r"Kraus array \(k, n_out, n_in\), got shape \(0,\)"):
            entry(())
        with pytest.raises(ValueError, match=r"Kraus array \(k, n_out, n_in\), got shape \(2, 3\)"):
            entry(np.zeros((2, 3), dtype=complex))
        with pytest.raises(ValueError, match="at least one"):
            entry(np.zeros((0, 2, 2), dtype=complex))
        with pytest.raises(ValueError, match="dimensions must be positive"):
            entry(np.zeros((1, 2, 0), dtype=complex))
        with pytest.raises(ValueError, match="non-finite"):
            entry(np.array([[[np.nan]]]))


# ------------------------------------------------------- the Kraus array


def assert_kraus_array(ops):
    """A channel is one C-contiguous complex array (k, n_out, n_in)."""
    assert isinstance(ops, np.ndarray) and ops.dtype == np.complex128
    assert ops.ndim == 3
    assert ops.flags.c_contiguous


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_operators_are_one_kraus_array(name):
    family = FAMILIES[name]
    options = {"theta": 0.3, "phi": 0.2, "p": 0.4, "dim": 4}
    options["w"] = np.eye(4 if "dim" in family.params else 3)
    assert_kraus_array(family.build(*(options[p] for p in family.params)))


def test_derived_channels_hold_one_kraus_array(tmp_path, rng):
    ch = random_cptp(2, 3, 4, rng)
    comp = complementary(ch)  # built from a transposed view
    assert_kraus_array(comp)
    assert np.array_equal(comp, ch.transpose(1, 0, 2))
    write_json_atomic(tmp_path / "ch.json", channel_to_dict(ch))
    assert_kraus_array(read_channel(tmp_path / "ch.json"))
    assert_kraus_array(tensor_channel(ch, qubit_family_a(0.4)))
    assert_kraus_array(choi_to_kraus(choi_matrix(ch), 2, 3))


def test_conversions_refuse_wrong_shapes():
    with pytest.raises(ValueError, match="Choi matrix shape"):
        choi_to_kraus(np.eye(4), 2, 3)
    with pytest.raises(ValueError, match="Choi matrix shape"):
        choi_to_kraus(np.eye(4)[:, :2], 2, 2)
    with pytest.raises(ValueError, match="Choi matrix shape"):
        channel_rank(np.eye(4)[:, :3])


# ------------------------------------- choi_to_kraus against a tuple sort


def choi_to_kraus_by_tuple_sort(choi, n_in, n_out, tol=1e-10):
    """Minimal Kraus operators, ordered by a sort of (-eigenvalue, real parts
    of the eigenvector) tuples, one operator at a time."""
    ev, vec = np.linalg.eigh(choi)
    picked = [(float(ev[i]), tuple(np.real(vec[:, i])), i) for i in range(len(ev)) if ev[i] > tol]
    picked.sort(key=lambda item: (-item[0], item[1]))
    return np.array([(np.sqrt(lam) * vec[:, i]).reshape(n_in, n_out).T for lam, _, i in picked])


PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1.0, -1.0])])

DEGENERATE_CHOI = {
    "qubit-a at pi/4": choi_matrix(qubit_family_a(np.pi / 4)),
    "dephasing, a tie of exactly equal eigenvalues": choi_matrix(qubit_family_b(0.0)),
    "equal-weight Pauli mixture": choi_matrix(PAULIS / 2),
    "equal-weight identity and Z mixture": choi_matrix(PAULIS[[0, 3]] * SQ2),
}


@pytest.mark.parametrize("choi", list(DEGENERATE_CHOI.values()), ids=list(DEGENERATE_CHOI))
def test_choi_to_kraus_is_bitwise_the_tuple_sort(choi):
    got, expected = choi_to_kraus(choi, 2, 2), choi_to_kraus_by_tuple_sort(choi, 2, 2)
    assert got.flags.c_contiguous and got.dtype == expected.dtype
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


LIBRARY_REFUSALS = {
    "stinespring of a non-square channel": (
        lambda: stinespring(np.ones((1, 2, 3))), "square dilation requires n_in == n_out"
    ),
    "choi_to_kraus of zero": (
        lambda: choi_to_kraus(np.zeros((4, 4)), 2, 2),
        "Choi matrix has no eigenvalue above tolerance",
    ),
    "superop_to_choi of the wrong shape": (
        lambda: superop_to_choi(np.zeros((4, 3)), 2, 2), r"shape \(4, 3\) does not match \(4, 4\)"
    ),
    "partial_transpose at wrong dims": (
        lambda: partial_transpose(np.eye(4), (2, 3)),
        r"matrix shape \(4, 4\) does not match dims \(2, 3\)",
    ),
    "validate_states of a non-square state": (
        lambda: validate_states(np.zeros((1, 2, 3))),
        r"density matrix must be square, got \(2, 3\)",
    ),
    "concurrences of a qubit state": (
        lambda: concurrences(np.eye(2)[None] / 2), "concurrence needs a two-qubit state, got dim 2"
    ),
}


@pytest.mark.parametrize(
    "call,message", list(LIBRARY_REFUSALS.values()), ids=list(LIBRARY_REFUSALS)
)
def test_library_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
