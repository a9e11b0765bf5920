"""One acceptance rule for channels and the states derived from them.

A channel is checked once, for completeness: within --tol by the CLI's
``analyze``, which compares the residual that ``validate_channel`` reports
with it, and within DEFAULT_TOL everywhere else.  A state that the library
derives from an accepted channel, or from accepted input states, is
eigensolved as it is and not re-judged at the stricter state tolerances.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qchan import (
    DEFAULT_TOL,
    affine_of_channel,
    amplitude_damping,
    bloch_image,
    capacity_lower_bounds,
    coherent_information,
    entanglement_evolution_factor,
    gram_states,
    identity_channel,
    map_entropies,
    map_entropy,
    ndim_theta0,
    qubit_family_a,
    qubit_family_b,
    qutrit_family,
    selfcomplementarity_defect,
)
from qchan import channels, cli, linalg, measures
from qchan.serialize import channel_to_dict, write_json_atomic

from conftest import bell_state, random_cptp, random_unitary


def scaled(channel, residual):
    """The channel with every operator scaled by sqrt(1 + residual): its
    completeness residual is ``residual``."""
    return math.sqrt(1 + residual) * channel


def analyze(tmp_path, channel, *options):
    """Exit code and report of ``qchan analyze`` on the channel's document."""
    doc, out = tmp_path / "ch.json", tmp_path / "report.json"
    write_json_atomic(doc, channel_to_dict(channel))
    code = cli.main(["analyze", "--in", str(doc), "--out", str(out), *options])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def analyze_values(tmp_path, channel):
    code, report = analyze(tmp_path, channel)
    assert code == 0 and report["cptp_ok"]
    keys = ("map_entropy_nats", "coherent_information_nats", "chi_bound_nats")
    return np.array([report[key] for key in keys])


# Every entry point that derives a state from a channel, on one argument.
ENTRY_POINTS = {
    "analyze": analyze_values,
    "coherent_information": lambda _, ch: coherent_information(ch, np.eye(2) / 2),
    "map_entropy": lambda _, ch: map_entropy(ch),
    "map_entropies": lambda _, ch: map_entropies(ch[None]),
    "gram_states": lambda _, ch: gram_states(ch[None])[1],
    "capacity_lower_bounds": lambda _, ch: capacity_lower_bounds(ch[None]),
    "affine_of_channel": lambda _, ch: np.concatenate([a.ravel() for a in affine_of_channel(ch)]),
    "bloch_image": lambda _, ch: bloch_image(ch, 16),
    "entanglement_evolution_factor": lambda _, ch: entanglement_evolution_factor(ch, bell_state()),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_a_channel_accepted_at_the_default_tolerance_is_evaluated(tmp_path, name):
    # Residual 5e-11 <= DEFAULT_TOL: accepted, although every derived state
    # has a trace 5e-11 off 1, beyond the state trace tolerance 1e-12.
    call = ENTRY_POINTS[name]
    channel = scaled(identity_channel(2), 5e-11)
    channels.require_cptp_stack(channel[None])
    got = np.asarray(call(tmp_path, channel), dtype=float)
    assert np.abs(got - np.asarray(call(tmp_path, identity_channel(2)), dtype=float)).max() <= 1e-9


def test_analyze_evaluates_a_channel_accepted_at_its_tol(tmp_path):
    channel = scaled(qubit_family_a(0.3), 2e-8)
    code, report = analyze(tmp_path, channel, "--tol", "1e-6")
    assert code == 0
    assert report["cptp_ok"] is True and abs(report["cptp_residual"] - 2e-8) <= 1e-15
    _, exact = analyze(tmp_path, qubit_family_a(0.3))
    for key in ("map_entropy_nats", "coherent_information_nats", "chi_bound_nats"):
        assert abs(report[key] - exact[key]) <= 1e-6
    assert report["choi_rank"] == exact["choi_rank"] == 2


def test_tol_moves_only_the_completeness_verdict(tmp_path):
    # Defect 1e-8 and residual 7.1e-9: complete within --tol 1e-6, but not
    # self-complementary within DEFAULT_TOL, as is_selfcomplementary says.
    channel = qubit_family_a(0.3).copy()
    channel[0, 1, 0] += 1e-8
    assert not channels.is_selfcomplementary(channel)
    code, report = analyze(tmp_path, channel, "--tol", "1e-6")
    assert code == 0
    assert report["cptp_ok"] is True and report["selfcomplementary"] is False


def test_analyze_tol_on_a_family_document_moves_only_the_completeness_verdict(tmp_path):
    # ndim at theta = 1e-8 is complete within 1e-15, with defect 7.1e-9.
    doc, report = tmp_path / "ndim.json", tmp_path / "ndim.report.json"
    family = ["family", "--id", "ndim", "--n", "4", "--theta", "1e-8"]
    assert cli.main([*family, "--out", str(doc)]) == 0
    validation = json.loads(doc.read_text())["validation"]
    assert validation["cptp_residual"] <= 1e-15 and validation["selfcomplementary"] is False
    assert cli.main(["analyze", "--in", str(doc), "--tol", "1e-6", "--out", str(report)]) == 0
    verdicts = json.loads(report.read_text())
    assert verdicts["cptp_ok"] is True and verdicts["selfcomplementary"] is False


def test_choi_rank_is_cut_at_the_default_tolerance():
    # Amplitude damping at p = 1e-8 has a Gram eigenvalue of about 1e-8 n_in.
    channel = amplitude_damping(1e-8)
    report = channels.validate_channel(channel)
    assert report.cptp_residual <= DEFAULT_TOL and report.choi_rank == 2
    assert report.choi_rank == channels.channel_rank(channels.choi_matrix(channel))


def test_capacity_bound_checks_completeness_at_its_tol():
    # The library's tolerance is DEFAULT_TOL: the channel that analyze
    # accepts at --tol 1e-6 above is refused here, as one sample of a block
    # by the capacity bound and by choi_measures' own completeness sum, on
    # complex (phi = 0.3) and real (phi = 0) blocks.
    stacks = [qubit_family_a(np.linspace(0.1, 1.4, 7), phi) for phi in (0.3, 0.0)]
    for stack in stacks:
        stack[4] = scaled(stack[4], 2e-8)
    # A residual of exactly 2e-8, all of it in the (0, 1) and (1, 0)
    # entries: the diagonal moves by 4e-16.
    stacks.append(amplitude_damping(np.linspace(0.1, 0.9, 7)))
    stacks[-1][4, 0, 0, 1] = 2e-8
    for stack, call in itertools.product(stacks, (capacity_lower_bounds, measures.choi_measures)):
        with pytest.raises(ValueError, match="not trace preserving: residual 2.000e-08 > 1.000e-10"):
            call(stack)


@pytest.mark.parametrize("command", ["family", "analyze"])
@pytest.mark.parametrize("tol", [1e-5, 0.5, 1e300])
def test_tol_above_the_cap_exits_2_and_writes_nothing(tmp_path, capsys, command, tol):
    out = tmp_path / "out.json"
    if command == "family":
        # family takes no --tol: its parser refuses the option, whatever its value.
        with pytest.raises(SystemExit) as refused:
            cli.main(["family", "--id", "qubit-a", "--tol", repr(tol), "--out", str(out)])
        assert refused.value.code == 2
        assert f"unrecognized arguments: --tol {tol!r}" in capsys.readouterr().err
    else:
        doc = tmp_path / "ch.json"
        write_json_atomic(doc, channel_to_dict(qubit_family_a(0.3)))
        argv = ["analyze", "--in", str(doc), "--tol", repr(tol), "--out", str(out)]
        assert cli.main(argv) == 2
        assert f"--tol {tol} is above the tolerance cap {cli.MAX_TOL}" in capsys.readouterr().err
    assert not out.exists()


# The finiteness passes (linalg._finite) of one call on a qubit channel.
# Each public function a call goes through coerces its argument once;
# completeness_residuals takes an accepted stack and makes none, and the
# Gram states and partial transposes built from an accepted stack are
# eigensolved unchecked.  A state argument takes two passes: its coercion
# and validate_states'.
FINITE_PASSES = {
    "validate_channel": (channels.validate_channel, 2),
    "gram_states": (lambda ch: channels.gram_states(ch[None]), 1),
    "choi_measures": (lambda ch: measures.choi_measures(ch[None]), 1),
    "choi_state": (channels.choi_state, 4),
    "stinespring": (channels.stinespring, 1),
    "apply": (lambda ch: channels.apply(ch, np.eye(2) / 2), 3),
    "entanglement_evolution_factor": (
        lambda ch: measures.entanglement_evolution_factor(ch, bell_state()),
        3,
    ),
}


@pytest.mark.parametrize("name", list(FINITE_PASSES))
def test_finiteness_passes_per_call(monkeypatch, name):
    call, expected = FINITE_PASSES[name]
    passes = []
    finite = linalg._finite

    def count(*args):
        passes.append(args[-1])
        return finite(*args)

    # channels holds its own binding of the name; measures reaches it only
    # through channels.
    for module in (linalg, channels):
        monkeypatch.setattr(module, "_finite", count)
    call(qubit_family_a(0.3))
    assert len(passes) == expected, passes


@pytest.mark.parametrize(
    "channel",
    [random_cptp(3, 2, 4, np.random.default_rng(5)), ndim_theta0(8), ndim_theta0(32)],
    ids=["random-3-2-4", "ndim-theta0-8", "ndim-theta0-32"],
)
def test_analyze_checks_its_channel_once(tmp_path, monkeypatch, channel):
    counts = {"completeness": 0, "gram": 0, "gram_eigensolve": 0, "eigensolve": 0}
    residuals, grams = channels.completeness_residuals, channels._grams

    def count_residuals(kraus):
        counts["completeness"] += 1
        return residuals(kraus)

    def count_grams(kraus):
        counts["gram"] += 1
        return grams(kraus)

    def counting(solve):
        def count_spectra(a, *args, **kwargs):
            counts["eigensolve"] += 1
            # The Gram state is the one k x k matrix of the run when k differs
            # from n_out; otherwise the output spectra have its shape too.
            counts["gram_eigensolve"] += np.shape(a)[-2:] == (len(channel), len(channel))
            return solve(a, *args, **kwargs)

        return count_spectra

    monkeypatch.setattr(channels, "completeness_residuals", count_residuals)
    # measures holds its own binding of the name, for the complement's Gram state.
    for module in (channels, measures):
        monkeypatch.setattr(module, "_grams", count_grams)
    # A stack of spectra is solved by LAPACK or, at side 2, by the closed form.
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(linalg, "_pair_spectra", counting(linalg._pair_spectra))
    code, report = analyze(tmp_path, channel)
    assert code == 0 and report["cptp_ok"] and report["chi_bound_nats"] is not None
    # One Gram state, then the capacity bound's per-state and average outputs;
    # the average output is the Gram state of the complementary tensor.
    assert counts["completeness"] == 1 and counts["gram"] == 2 and counts["eigensolve"] == 3
    if len(channel) != channel.shape[1]:
        assert counts["gram_eigensolve"] == 1


def symmetric_members():
    """Strictly symmetric Kraus tensors: 40 qutrit members with a seeded Haar
    W at random theta, ndim-theta0 for n = 2..32, and qubit family members."""
    rng = np.random.default_rng(11)
    for i in range(40):
        theta = float(rng.uniform(0.0, math.pi))
        yield f"qutrit-{i}", qutrit_family(theta, random_unitary(3, rng))
    for n in range(2, 33):
        yield f"ndim-theta0-{n}", ndim_theta0(n)
    for theta, phi in [(0.0, 0.0), (0.3, 0.7), (math.pi / 4, 0.0), (1.2, 2.5), (math.pi / 2, 0.0)]:
        yield f"qubit-a-{theta:.4f}-{phi}", qubit_family_a(theta, phi)
        yield f"qubit-b-{theta:.4f}-{phi}", qubit_family_b(theta, phi)


def test_analyze_reports_exactly_zero_coherent_information_on_symmetric_tensors(tmp_path):
    # Phi(1/n_in) and Phi^c(1/n_in) come from one Gram kernel, and a strictly
    # symmetric tensor is its own complement: the two entropies share every bit.
    for name, channel in symmetric_members():
        assert selfcomplementarity_defect(channel) == 0.0, name
        code, report = analyze(tmp_path, channel)
        assert code == 0 and report["cptp_ok"] and report["selfcomplementary"], name
        assert report["coherent_information_nats"] == 0.0, (name, report)


def test_sweep_checks_each_block_once(tmp_path, monkeypatch):
    sizes = []
    require = channels._require_complete

    def count_residuals(residuals):
        sizes.append(len(residuals))
        return require(residuals)

    # choi_measures holds its own binding of the name.
    for module in (channels, measures):
        monkeypatch.setattr(module, "_require_complete", count_residuals)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--points", "3000", "--out", str(out)]) == 0
    # One completeness verdict per block, over the block's channels.
    assert sizes == [len(range(3000)[block]) for block in linalg.blocks(3000)] == [1000, 1000, 1000]
