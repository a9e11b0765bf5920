import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qchan import (
    amplitude_damping,
    choi_state,
    dagger,
    hermitian_eigenvalues,
    partial_transpose,
    qubit_family_a,
    qubit_family_b,
    validate_states,
)
from qchan.channels import _grams
from qchan.linalg import STACK_BLOCK, _product, as_matrix, blocks
from qchan.measures import choi_measures

from conftest import bell_state, random_cptp, two_operator_qubit_stacks

SY = np.array([[0, -1j], [1j, 0]])
YY = np.kron(SY, SY)


def small_complex_matrices(n_min=1, n_max=4, square=True):
    def build(n):
        shape = (n, n) if square else (n, n + 1)
        elements = st.complex_numbers(
            max_magnitude=2.0, allow_nan=False, allow_infinity=False
        )
        return arrays(np.complex128, shape, elements=elements)

    return st.integers(n_min, n_max).flatmap(build)


def test_kron_sigma_y_pair_is_antidiagonal():
    # choi_measures' signed reversal [-1, 1, 1, -1] of the Kraus rows rests on this.
    expected = np.zeros((4, 4))
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    assert np.allclose(YY, expected)


def test_dagger():
    assert np.array_equal(dagger(np.eye(2)), np.eye(2))
    assert np.array_equal(dagger(np.array([[0, 1], [0, 0]])), np.array([[0, 0], [1, 0]]))
    assert np.array_equal(
        dagger(np.diag([1j, -1j])), np.diag([-1j, 1j])
    )


def test_hermitian_eigenvalues_basic():
    assert np.allclose(hermitian_eigenvalues(np.diag([0.25, 0.75])), [0.25, 0.75])
    assert np.allclose(hermitian_eigenvalues(np.array([[0, 1], [1, 0]])), [-1, 1])


@pytest.mark.parametrize("name", sorted(two_operator_qubit_stacks()))
def test_two_by_two_spectra_match_eigvalsh(name):
    # Every 2 x 2 spectrum of the measures: the Gram states G / 2, the
    # outputs of the basis states, and their mixture, Phi(1/2).
    kraus = two_operator_qubit_stacks()[name]
    flat = kraus.reshape(len(kraus), 2, 4)
    gram = flat.conj() @ flat.swapaxes(-1, -2)
    outputs = np.einsum("naji,naki->nijk", kraus, kraus.conj())
    for states in (gram / 2, outputs[:, 0], outputs[:, 1], outputs.mean(axis=1)):
        closed = hermitian_eigenvalues(states)
        assert closed.shape == (len(kraus), 2)
        assert np.all(closed[:, 0] <= closed[:, 1])
        assert np.abs(closed - np.linalg.eigvalsh(states)).max() <= 1e-15


def test_two_by_two_small_eigenvalue_keeps_its_relative_accuracy():
    # Near-pure states: m - h would leave an absolute error of eps * m,
    # which the entropy's logarithm magnifies; det / (m + h) keeps the digits.
    near_pure = [
        np.diag([1.0, 1e-13]),
        np.array([[1.0, 1e-8], [1e-8, 1e-12]]),
        np.array([[1e-12, 1e-8j], [-1e-8j, 1.0]]),
        -np.array([[1.0, 1e-8], [1e-8, 1e-12]]),
    ]
    for m in near_pure:
        expected = np.linalg.eigvalsh(m)
        i = np.argmin(np.abs(expected))
        assert abs(hermitian_eigenvalues(m)[i] - expected[i]) <= 1e-14 * abs(expected[i])


@given(arrays(np.complex128, (3, 2, 2), elements=st.complex_numbers(max_magnitude=1.0)))
def test_two_by_two_spectra_read_the_lower_triangle(m):
    hermitian = np.tril(m) + dagger(np.tril(m, -1))
    hermitian[:, [0, 1], [0, 1]] = hermitian[:, [0, 1], [0, 1]].real
    closed = hermitian_eigenvalues(m)
    assert np.array_equal(closed, hermitian_eigenvalues(hermitian))
    assert np.abs(closed - np.linalg.eigvalsh(hermitian)).max() <= 8 * np.finfo(float).eps


def phase_covariant_pairs(rng, n) -> np.ndarray:
    """Kraus pairs K1 = diag(a, b), K2 = [[0, c], [d, 0]] with |a|^2 + |d|^2
    = |b|^2 + |c|^2 = 1 and random phases: their partial transposes are
    X-matrices."""
    alpha, beta = rng.uniform(0.0, np.pi / 2, (2, n))
    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (4, n)))
    kraus = np.zeros((n, 2, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0], kraus[:, 0, 1, 1] = np.cos(alpha) * phases[0], np.cos(beta) * phases[1]
    kraus[:, 1, 0, 1], kraus[:, 1, 1, 0] = np.sin(beta) * phases[2], np.sin(alpha) * phases[3]
    return kraus


def choi_partial_transposes(kraus) -> np.ndarray:
    """PT[(k,i),(l,j)] = sum_a K_a[i,l] conj(K_a[j,k]) / 2 of each qubit
    channel of a Kraus stack."""
    return np.einsum("nail,najk->nkilj", kraus, kraus.conj()).reshape(-1, 4, 4) / 2


def test_four_by_four_x_matrices_take_the_closed_form_sample_by_sample(rng, monkeypatch):
    thetas = np.linspace(0.0, np.pi, 40)
    x_shaped = [qubit_family_a(thetas, 0.9), amplitude_damping(np.linspace(0.0, 1.0, 40)),
                phase_covariant_pairs(rng, 40)]
    # qubit-b is phase-covariant only at theta = 0, where both operators are diagonal.
    dense = [qubit_family_b(thetas[1:-1], 0.4),
             np.array([random_cptp(2, 2, 2, rng) for _ in range(40)])]
    kraus = np.concatenate(x_shaped + dense)
    is_x = np.arange(len(kraus)) < 120
    order = rng.permutation(len(kraus))
    kraus, is_x = kraus[order], is_x[order]
    pts = choi_partial_transposes(kraus)
    expected = np.linalg.eigvalsh(pts)

    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def record(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    ev = hermitian_eigenvalues(pts)
    # The same stack as a strided view, laid out entry-major as choi_measures
    # hands its Gram states over at k = 4, gets the same bits.
    strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, 0, -1)), -1, 0)
    assert not strided.flags.c_contiguous
    assert hermitian_eigenvalues(strided).tobytes() == ev.tobytes()
    # The dense rows alone reach LAPACK, in one call per stack, and keep its bits.
    assert shapes == [(78, 4, 4)] * 2
    assert ev[~is_x].tobytes() == expected[~is_x].tobytes()
    # X-shaped rows are ascending and within rounding of LAPACK.
    assert np.all(np.diff(ev[is_x], axis=-1) >= 0)
    scale = np.abs(pts[is_x]).max(axis=(-2, -1))[:, None]
    assert np.all(np.abs(ev[is_x] - expected[is_x]) <= 1e-15 * scale)
    # A row's bits do not depend on its neighbours.
    measures = np.array(choi_measures(kraus))
    for i in range(len(kraus)):
        assert hermitian_eigenvalues(pts[i]).tobytes() == ev[i].tobytes()
        assert hermitian_eigenvalues(pts[i:i + 1]).tobytes() == ev[i:i + 1].tobytes()
        single = np.array(choi_measures(kraus[i:i + 1]))[:, 0]
        assert single.tobytes() == measures[:, i].tobytes()
    assert hermitian_eigenvalues(np.zeros((0, 4, 4))).shape == (0, 4)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "shapes",
    [((64, 3, n), (64, n, 5)) for n in (1, 2, 3, 4)]
    # One matrix against a stack, broadcast.
    + [((3, 2), (7, 2, 4))],
)
def test_product_sums_a_short_contraction_within_rounding(rng, shapes):
    a, b = (complex_normal(rng, shape) for shape in shapes)
    expected = a @ b
    got = _product(a, b)
    assert got.shape == expected.shape
    bound = 4 * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
    assert np.all(np.abs(got - expected) <= bound)


@pytest.mark.parametrize("n", [5, 8, 32])
def test_product_of_a_longer_contraction_is_matmul(rng, n):
    a, b = complex_normal(rng, (4, 3, n)), complex_normal(rng, (4, n, 6))
    assert np.array_equal(_product(a, b), a @ b)


@pytest.mark.parametrize("n", [0, 1, 1535, 1536, 2560, 4097, 2**20 + 1])
def test_blocks_are_near_equal_and_shorter_than_one_and_a_half_stack_blocks(n):
    slices = blocks(n)
    sizes = [len(range(n)[block]) for block in slices]
    assert len(slices) == max(1, round(n / STACK_BLOCK))
    assert [block.start for block in slices] == [sum(sizes[:i]) for i in range(len(sizes))]
    assert sum(sizes) == n and max(sizes) - min(sizes) <= 1 and max(sizes) < 1.5 * STACK_BLOCK


@pytest.mark.parametrize("name", sorted(two_operator_qubit_stacks()))
def test_grams_summed_entry_by_entry_are_exactly_hermitian(name):
    # A qubit channel's Gram product contracts over n_out * n_in = 4.
    g = _grams(two_operator_qubit_stacks()[name])
    assert np.array_equal(g, dagger(g))


def test_partial_transpose_of_family_choi_has_single_negative_eigenvalue():
    omega = choi_state(qubit_family_a(0.0))
    ev = hermitian_eigenvalues(partial_transpose(omega, (2, 2)))
    negative = ev[ev < -1e-10]
    assert negative.size == 1
    assert abs(negative[0] + 0.25) <= 1e-12


def spin_flip_product_spectrum(omega):
    """Eigenvalues of omega (sigma_y (x) sigma_y) conj(omega) (sigma_y (x)
    sigma_y), descending; real within 1e-12."""
    ev = np.linalg.eigvals(omega @ YY @ omega.conj() @ YY)
    assert np.abs(ev.imag).max() <= 1e-12
    return np.sort(ev.real)[::-1]


def test_spin_flip_product_spectrum_at_family_points():
    # theta = 0: single nonzero eigenvalue 1/2, so the Wootters gap equals
    # the concurrence 1/sqrt2.
    omega = choi_state(qubit_family_a(0.0))
    ev = spin_flip_product_spectrum(omega)
    assert abs(ev[0] - 0.5) <= 1e-12
    assert np.abs(ev[1:]).max() <= 1e-12
    # generic theta: two nonzero values sin^2/2 and cos^2/2 whose square
    # roots differ by the concurrence.
    theta = np.pi / 6
    omega = choi_state(qubit_family_a(theta))
    ev = spin_flip_product_spectrum(omega)
    assert abs(ev[0] - np.cos(theta) ** 2 / 2) <= 1e-12
    assert abs(ev[1] - np.sin(theta) ** 2 / 2) <= 1e-12
    gap = np.sqrt(ev[0]) - np.sqrt(ev[1])
    assert abs(gap - abs(np.sin(theta) - np.cos(theta)) / np.sqrt(2)) <= 1e-12


def test_partial_transpose_product_rule(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = partial_transpose(np.kron(a, b), (2, 2))
    assert np.abs(got - np.kron(a.T, b)).max() <= 1e-12


def test_partial_transpose_bell_is_half_swap():
    pt = partial_transpose(bell_state(), (2, 2))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1
    assert np.abs(pt - swap / 2).max() <= 1e-12
    assert abs(hermitian_eigenvalues(pt).min() + 0.5) <= 1e-12


def test_partial_transpose_of_breaking_point_choi_is_psd():
    omega = choi_state(qubit_family_a(np.pi / 4))
    ev = hermitian_eigenvalues(partial_transpose(omega, (2, 2)))
    assert ev.min() >= -1e-12


@given(m=small_complex_matrices(n_min=2, n_max=3))
def test_partial_transpose_involution_and_trace(m):
    big = np.kron(m, m)
    d = m.shape[0]
    pt = partial_transpose(big, (d, d))
    assert np.abs(partial_transpose(pt, (d, d)) - big).max() <= 1e-12
    assert abs(np.trace(pt) - np.trace(big)) <= 1e-12 * max(1.0, abs(np.trace(big)))


@given(m=small_complex_matrices(n_min=2, n_max=4))
def test_hermitian_eigenvalue_sum_is_trace(m):
    h = (m + dagger(m)) / 2
    ev = hermitian_eigenvalues(h)
    assert abs(ev.sum() - np.real(np.trace(h))) <= 1e-10 * max(1.0, np.abs(h).max())


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_density_matrix_validation():
    validate_states((np.eye(2) / 2)[None])
    with pytest.raises(ValueError, match="Hermitian"):
        validate_states(np.array([[[0.5, 0.5], [0.0, 0.5]]]))
    with pytest.raises(ValueError, match="trace"):
        validate_states(np.eye(2)[None])
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_states(np.diag([1.5, -0.5])[None])
