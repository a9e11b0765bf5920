import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qchan import (
    apply,
    channel_rank,
    choi_matrix,
    choi_state,
    choi_to_kraus,
    choi_to_superop,
    complementary,
    compose,
    dephasing,
    identity_channel,
    is_selfcomplementary,
    kraus_from_unitary,
    kraus_to_superop,
    ndim_theta0,
    partial_trace,
    qubit_family_a,
    selfcomplementarity_defect,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
    validate_states,
)
from qchan.families import FAMILIES
from qchan.serialize import channel_from_dict, channel_to_dict

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
    out = apply(dephasing(), rho)
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
    assert is_selfcomplementary(qubit_family_a(1.1, 0.4), 1e-12)
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
    s = kraus_to_superop(dephasing())
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
    assert np.abs(partial_trace(d, (2, 2), keep=0) - np.eye(2)).max() <= 1e-12


def test_reshuffle_round_trip_on_random_matrices(rng):
    for n_in, n_out in [(2, 2), (2, 3), (3, 2)]:
        m = rng.standard_normal((n_out**2, n_in**2)) + 1j * rng.standard_normal(
            (n_out**2, n_in**2)
        )
        back = choi_to_superop(superop_to_choi(m, n_in, n_out), n_in, n_out)
        assert np.array_equal(back, m)


def test_superop_choi_round_trip():
    s = kraus_to_superop(qubit_family_a(0.4, 0.2))
    back = choi_to_superop(superop_to_choi(s, 2, 2), 2, 2)
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
    for n, k in [(2, 2), (3, 2), (2, 4)]:
        ch = random_cptp(n, n, k, rng)
        u = stinespring(ch)
        assert unitarity_defect(u) <= 1e-10
        back = kraus_from_unitary(u, k)
        assert np.array_equal(back, ch)


def test_stinespring_rejects_incomplete_channel():
    broken = np.array([np.eye(2, dtype=complex) * 0.5])
    with pytest.raises(ValueError, match="not trace preserving"):
        stinespring(broken)


def test_kraus_from_unitary_identity():
    ks = kraus_from_unitary(np.eye(2, dtype=complex), 1)
    assert len(ks) == 1 and np.array_equal(ks[0], np.eye(2))


def test_kraus_from_swap_unitary_is_reset_channel(rng):
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
    ks = kraus_from_unitary(swap, 2)
    rho = random_density_matrix(2, rng)
    out = apply(ks, rho)
    assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12


def test_kraus_from_tabulated_unitary_recovers_family():
    theta, phi = 1.1, 0.6
    s, c = np.sin(theta), np.cos(theta)
    tabulated = np.array(
        [
            [s, 0, 0, -c * np.exp(-1j * phi)],
            [0, SQ2, SQ2, 0],
            [0, SQ2, -SQ2, 0],
            [c * np.exp(1j * phi), 0, 0, s],
        ]
    )
    ks = kraus_from_unitary(tabulated, 2)
    expected = qubit_family_a(theta, phi)
    assert np.abs(ks - expected).max() <= 1e-12


# ------------------------------------------------------- algebra


def test_tensor_preserves_selfcomplementarity():
    a = qubit_family_a(0.3, 1.0)
    b = qubit_family_a(1.2, 0.0)
    assert is_selfcomplementary(tensor_channel(a, b), 1e-12)


def test_tensor_with_trivial_channel_is_identity_on_superop():
    ch = qubit_family_a(0.5)
    t = tensor_channel(ch, identity_channel(1))
    assert np.abs(kraus_to_superop(t) - kraus_to_superop(ch)).max() <= 1e-12


def test_tensor_dimension_bookkeeping():
    t = tensor_channel(qubit_family_a(0.1), qubit_family_a(0.2))
    assert t.shape == (4, 4, 4)


def test_compose_with_identity():
    ch = qubit_family_a(0.9, 0.2)
    comp = compose(ch, identity_channel(2))
    assert np.abs(kraus_to_superop(comp) - kraus_to_superop(ch)).max() <= 1e-12


def test_compose_family_members_is_generically_not_selfcomplementary():
    comp = compose(qubit_family_a(0.4), qubit_family_a(1.0))
    assert len(comp) == 4
    assert not is_selfcomplementary(comp)


def test_compose_dephasing_is_idempotent():
    twice = compose(dephasing(), dephasing())
    assert np.abs(kraus_to_superop(twice) - kraus_to_superop(dephasing())).max() <= 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        compose(qubit_family_a(0.1), identity_channel(3))


def test_validate_channel_cptp_verdicts():
    ok = validate_channel(qubit_family_a(0.8, 0.8))
    assert ok.cptp_ok and ok.cptp_residual <= 1e-12
    bad = validate_channel(np.array([np.eye(2, dtype=complex)] * 2))
    assert not bad.cptp_ok and abs(bad.cptp_residual - 1.0) <= 1e-12
    for n in range(2, 7):
        assert validate_channel(ndim_theta0(n)).cptp_ok


def test_validate_channel_report():
    rep = validate_channel(qubit_family_a(0.25, 0.75))
    assert rep.cptp_ok and rep.selfcomplementary and rep.choi_rank == 2


def test_choi_state_is_valid_density_matrix():
    omega = choi_state(qubit_family_a(1.3, 2.2))
    assert omega.shape == (4, 4)
    validate_states(omega[None])


@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_family_choi_rank_is_two_everywhere(theta, phi):
    assert channel_rank(choi_matrix(qubit_family_a(theta, phi))) == 2


def test_kraus_array_shape_validation():
    # Each public function coerces its channel once, at entry, with
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


def test_derived_channels_hold_one_kraus_array(rng):
    ch = random_cptp(2, 3, 4, rng)
    comp = complementary(ch)  # built from a transposed view
    assert_kraus_array(comp)
    assert np.array_equal(comp, ch.transpose(1, 0, 2))
    assert_kraus_array(channel_from_dict(channel_to_dict(ch)))
    assert_kraus_array(tensor_channel(ch, qubit_family_a(0.4)))
    assert_kraus_array(compose(qubit_family_a(0.4), identity_channel(2)))
    assert_kraus_array(choi_to_kraus(choi_matrix(ch), 2, 3))
    assert_kraus_array(kraus_from_unitary(np.eye(4), 2))


def test_conversions_refuse_wrong_shapes():
    with pytest.raises(ValueError, match="Choi matrix shape"):
        choi_to_kraus(np.eye(4), 2, 3)
    with pytest.raises(ValueError, match="Choi matrix shape"):
        choi_to_kraus(np.eye(4)[:, :2], 2, 2)
    with pytest.raises(ValueError, match="Choi matrix shape"):
        channel_rank(np.eye(4)[:, :3])
    with pytest.raises(ValueError, match="Choi matrix shape"):
        choi_to_superop(np.eye(6), 2, 2)
    with pytest.raises(ValueError, match="unitary shape"):
        kraus_from_unitary(np.eye(4)[:, :2], 2)
    with pytest.raises(ValueError, match="not divisible"):
        kraus_from_unitary(np.eye(3), 2)
