import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qchan import (
    DensityMatrix,
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
    kraus,
    kraus_from_unitary,
    kraus_to_superop,
    ndim_theta0,
    partial_trace,
    qubit_family_a,
    random_cptp,
    random_density_matrix,
    selfcomplementarity_defect,
    stinespring,
    superop_to_choi,
    tensor_channel,
    validate_channel,
)
from qchan.channels import (
    KrausSet,
    StinespringUnitary,
    reshuffle_choi_to_superop,
    reshuffle_superop_to_choi,
)

SQ2 = 1.0 / np.sqrt(2.0)


def depolarizing_qubit():
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    return kraus([p / 2 for p in paulis])


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
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    out = apply(dephasing(), rho)
    assert np.abs(out.matrix - np.diag([0.5, 0.5])).max() <= 1e-12


def test_apply_identity_is_identity(rng):
    rho = random_density_matrix(3, rng)
    out = apply(identity_channel(3), rho)
    assert np.abs(out.matrix - rho.matrix).max() <= 1e-12


def test_apply_family_to_maximally_mixed():
    out = apply(qubit_family_a(0.0), DensityMatrix.maximally_mixed(2))
    assert np.abs(out.matrix - np.diag([0.25, 0.75])).max() <= 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        apply(qubit_family_a(0.3), DensityMatrix.maximally_mixed(3))


def test_apply_refuses_incomplete_kraus_set():
    broken = kraus([np.eye(2, dtype=complex), np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="trace preserving"):
        apply(broken, DensityMatrix.maximally_mixed(2))


def test_apply_preserves_trace_for_random_channels(rng):
    for _ in range(20):
        ch = random_cptp(3, 2, 4, rng)
        rho = random_density_matrix(3, rng)
        out = apply(ch, rho)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10


# ------------------------------------------------------- complementary


def test_complementary_fixes_family_members():
    for theta, phi in [(0.0, 0.0), (0.9, 2.1), (np.pi / 2, 0.0), (np.pi / 4, 5.0)]:
        ch = qubit_family_a(theta, phi)
        comp = complementary(ch)
        for a, b in zip(ch.operators, comp.operators):
            assert np.array_equal(a, b)


def test_complementary_of_identity_is_full_trace_map():
    comp = complementary(identity_channel(2))
    assert comp.n_out == 1 and comp.k == 2
    assert np.array_equal(comp.operators[0], np.array([[1.0, 0.0]], dtype=complex))
    assert np.array_equal(comp.operators[1], np.array([[0.0, 1.0]], dtype=complex))


def test_complementary_is_involution_on_random_channels(rng):
    for n, k in [(2, 2), (3, 3), (2, 4)]:
        ch = random_cptp(n, k, k, rng)  # k operators of shape (k, n): k == n_out
        twice = complementary(complementary(ch))
        diff = np.abs(kraus_to_superop(twice).matrix - kraus_to_superop(ch).matrix).max()
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
        a = apply(ch, rho).matrix
        b = apply(comp, rho).matrix
        assert np.abs(a - b).max() <= 1e-10


# ------------------------------------------------------- conversions


def test_superop_of_identity_and_dephasing():
    assert np.array_equal(kraus_to_superop(identity_channel(2)).matrix, np.eye(4))
    s = kraus_to_superop(dephasing()).matrix
    assert np.abs(s - np.diag([1.0, 0.0, 0.0, 1.0])).max() <= 1e-12


def test_superop_of_family_has_expected_entry():
    s = kraus_to_superop(qubit_family_a(np.pi / 2)).matrix
    assert abs(s[0, 3] - 0.5) <= 1e-12


def test_choi_of_identity_is_unnormalized_bell():
    c = choi_matrix(identity_channel(2)).matrix
    v = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.abs(c - np.outer(v, v)).max() <= 1e-12


def test_choi_of_family_matches_hand_construction():
    for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2):
        got = choi_matrix(qubit_family_a(theta)).matrix
        assert np.abs(got - family_choi_by_hand(theta)).max() <= 1e-12


def test_choi_partial_trace_is_identity():
    d = choi_matrix(qubit_family_a(0.0)).matrix
    assert np.abs(partial_trace(d, (2, 2), keep=0) - np.eye(2)).max() <= 1e-12


def test_reshuffle_round_trip_on_random_matrices(rng):
    for n_in, n_out in [(2, 2), (2, 3), (3, 2)]:
        m = rng.standard_normal((n_out**2, n_in**2)) + 1j * rng.standard_normal(
            (n_out**2, n_in**2)
        )
        back = reshuffle_choi_to_superop(reshuffle_superop_to_choi(m, n_in, n_out), n_in, n_out)
        assert np.array_equal(back, m)


def test_superop_choi_round_trip():
    s = kraus_to_superop(qubit_family_a(0.4, 0.2))
    back = choi_to_superop(superop_to_choi(s))
    assert np.array_equal(back.matrix, s.matrix)


def test_choi_to_kraus_identity():
    ks = choi_to_kraus(choi_matrix(identity_channel(2)))
    assert ks.k == 1
    op = ks.operators[0]
    assert np.abs(op @ op.conj().T - np.eye(2)).max() <= 1e-10


def test_choi_to_kraus_family_has_two_operators():
    ks = choi_to_kraus(choi_matrix(qubit_family_a(0.8, 0.1)))
    assert ks.k == 2


def test_choi_to_kraus_rejects_non_psd():
    bad = choi_matrix(identity_channel(2)).matrix - 0.5 * np.eye(4)
    from qchan.channels import ChoiMatrix

    with pytest.raises(ValueError, match="PSD"):
        choi_to_kraus(ChoiMatrix(2, 2, bad))


def test_round_trip_kraus_choi_kraus_on_random_channels(rng):
    for _ in range(15):
        n_in = int(rng.integers(2, 4))
        n_out = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        ch = random_cptp(n_in, n_out, k, rng)
        rebuilt = choi_to_kraus(superop_to_choi(kraus_to_superop(ch)))
        diff = np.abs(kraus_to_superop(rebuilt).matrix - kraus_to_superop(ch).matrix).max()
        assert diff <= 1e-9


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
        assert np.abs(u.matrix[:, :2] - tabulated[:, :2]).max() <= 1e-12
        assert u.unitarity_defect() <= 1e-10


def test_stinespring_trivial_channel():
    u = stinespring(identity_channel(1))
    assert np.array_equal(u.matrix, np.eye(1))


def test_stinespring_random_channels_are_unitary_with_exact_readback(rng):
    for n, k in [(2, 2), (3, 2), (2, 4)]:
        ch = random_cptp(n, n, k, rng)
        u = stinespring(ch)
        assert u.unitarity_defect() <= 1e-10
        back = kraus_from_unitary(u, k)
        for a, b in zip(back.operators, ch.operators):
            assert np.array_equal(a, b)


def test_stinespring_rejects_incomplete_channel():
    broken = kraus([np.eye(2, dtype=complex) * 0.5])
    with pytest.raises(ValueError, match="orthonormal"):
        stinespring(broken)


def test_kraus_from_unitary_identity():
    u = StinespringUnitary(2, 1, np.eye(2, dtype=complex))
    ks = kraus_from_unitary(u, 1)
    assert ks.k == 1 and np.array_equal(ks.operators[0], np.eye(2))


def test_kraus_from_swap_unitary_is_reset_channel(rng):
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
    ks = kraus_from_unitary(StinespringUnitary(2, 2, swap), 2)
    rho = random_density_matrix(2, rng)
    out = apply(ks, rho)
    assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() <= 1e-12


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
    ks = kraus_from_unitary(StinespringUnitary(2, 2, tabulated), 2)
    expected = qubit_family_a(theta, phi)
    for a, b in zip(ks.operators, expected.operators):
        assert np.abs(a - b).max() <= 1e-12


# ------------------------------------------------------- algebra


def test_tensor_preserves_selfcomplementarity():
    a = qubit_family_a(0.3, 1.0)
    b = qubit_family_a(1.2, 0.0)
    assert is_selfcomplementary(tensor_channel(a, b), 1e-12)


def test_tensor_with_trivial_channel_is_identity_on_superop():
    ch = qubit_family_a(0.5)
    t = tensor_channel(ch, identity_channel(1))
    assert np.abs(kraus_to_superop(t).matrix - kraus_to_superop(ch).matrix).max() <= 1e-12


def test_tensor_dimension_bookkeeping():
    t = tensor_channel(qubit_family_a(0.1), qubit_family_a(0.2))
    assert (t.n_in, t.n_out, t.k) == (4, 4, 4)


def test_compose_with_identity():
    ch = qubit_family_a(0.9, 0.2)
    comp = compose(ch, identity_channel(2))
    assert np.abs(kraus_to_superop(comp).matrix - kraus_to_superop(ch).matrix).max() <= 1e-12


def test_compose_family_members_is_generically_not_selfcomplementary():
    comp = compose(qubit_family_a(0.4), qubit_family_a(1.0))
    assert comp.k == 4
    assert not is_selfcomplementary(comp)


def test_compose_dephasing_is_idempotent():
    twice = compose(dephasing(), dephasing())
    assert np.abs(kraus_to_superop(twice).matrix - kraus_to_superop(dephasing()).matrix).max() <= 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        compose(qubit_family_a(0.1), identity_channel(3))


def test_validate_channel_cptp_verdicts():
    ok = validate_channel(qubit_family_a(0.8, 0.8))
    assert ok.cptp_ok and ok.cptp_residual <= 1e-12
    bad = validate_channel(kraus([np.eye(2, dtype=complex)] * 2))
    assert not bad.cptp_ok and abs(bad.cptp_residual - 1.0) <= 1e-12
    for n in range(2, 7):
        assert validate_channel(ndim_theta0(n)).cptp_ok


def test_validate_channel_report():
    rep = validate_channel(qubit_family_a(0.25, 0.75))
    assert rep.cptp_ok and rep.selfcomplementary and rep.choi_rank == 2


def test_choi_state_is_valid_density_matrix():
    omega = choi_state(qubit_family_a(1.3, 2.2))
    assert omega.dim == 4


@given(theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_family_choi_rank_is_two_everywhere(theta, phi):
    assert channel_rank(choi_matrix(qubit_family_a(theta, phi))) == 2


def test_kraus_set_shape_validation():
    with pytest.raises(ValueError, match="shape"):
        KrausSet(2, 2, (np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
    with pytest.raises(ValueError, match="at least one"):
        KrausSet(2, 2, ())
