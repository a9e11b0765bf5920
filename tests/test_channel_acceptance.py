"""One acceptance rule for channels and the states derived from them.

A channel is checked once, for completeness, at the caller's tolerance; a
state that the library derives from an accepted channel, or from accepted
input states, is eigensolved as it is and not re-judged at the stricter
state tolerances.
"""

import json
import math

import numpy as np
import pytest

from qchan import (
    affine_of_channel,
    bloch_image,
    capacity_lower_bounds,
    classical_capacity_lower_bound,
    coherent_information,
    entanglement_evolution_factor,
    gram_states,
    holevo_chis,
    identity_channel,
    map_entropies,
    map_entropy,
    ndim_theta0,
    qubit_family_a,
)
from qchan import channels, cli
from qchan.serialize import channel_to_dict, write_json_atomic

from conftest import bell_state, random_cptp


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
    "capacity_lower_bounds": lambda _, ch: capacity_lower_bounds(ch[None], np.eye(2)),
    "classical_capacity_lower_bound": lambda _, ch: classical_capacity_lower_bound(ch, np.eye(2)),
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


def test_capacity_bound_checks_completeness_at_its_tol():
    stack = scaled(qubit_family_a(0.3), 2e-8)[None]
    exact = capacity_lower_bounds(qubit_family_a(0.3)[None], np.eye(2))
    assert abs(capacity_lower_bounds(stack, np.eye(2), tol=1e-6) - exact).max() <= 1e-6
    with pytest.raises(ValueError, match="not trace preserving"):
        capacity_lower_bounds(stack, np.eye(2), tol=1e-9)


def test_holevo_mixture_of_accepted_states_is_not_rejudged():
    # Each weight and each state passes its check; the mixture's trace,
    # 1 + 1.8e-12, is off by more than the state trace tolerance.
    states = np.array([[np.diag([1 + 9e-13, 0.0]), np.diag([0.0, 1 + 9e-13])]])
    chi = holevo_chis([0.5 + 4.5e-13] * 2, states)
    assert abs(chi[0] - math.log(2.0)) <= 1e-11


@pytest.mark.parametrize("command", ["family", "analyze"])
@pytest.mark.parametrize("tol", [1e-5, 0.5, 1e300])
def test_tol_above_the_cap_exits_2_and_writes_nothing(tmp_path, capsys, command, tol):
    out = tmp_path / "out.json"
    if command == "family":
        argv = ["family", "--id", "qubit-a"]
    else:
        doc = tmp_path / "ch.json"
        write_json_atomic(doc, channel_to_dict(qubit_family_a(0.3)))
        argv = ["analyze", "--in", str(doc)]
    assert cli.main([*argv, "--tol", repr(tol), "--out", str(out)]) == 2
    assert f"--tol {tol} is above the tolerance cap {cli.MAX_TOL}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "channel",
    [random_cptp(3, 2, 4, np.random.default_rng(5)), ndim_theta0(8), ndim_theta0(32)],
    ids=["random-3-2-4", "ndim-theta0-8", "ndim-theta0-32"],
)
def test_analyze_checks_its_channel_once(tmp_path, monkeypatch, channel):
    counts = {"completeness": 0, "gram": 0, "gram_eigensolve": 0, "eigensolve": 0}
    residuals, grams, eigvalsh = channels.completeness_residuals, channels._grams, np.linalg.eigvalsh

    def count_residuals(kraus):
        counts["completeness"] += 1
        return residuals(kraus)

    def count_grams(kraus):
        counts["gram"] += 1
        return grams(kraus)

    def count_eigvalsh(a, *args, **kwargs):
        counts["eigensolve"] += 1
        # The Gram state is the one k x k matrix of the run when k differs
        # from n_out; otherwise the output spectra have its shape too.
        counts["gram_eigensolve"] += np.shape(a)[-2:] == (len(channel), len(channel))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(channels, "completeness_residuals", count_residuals)
    monkeypatch.setattr(channels, "_grams", count_grams)
    monkeypatch.setattr(np.linalg, "eigvalsh", count_eigvalsh)
    code, report = analyze(tmp_path, channel)
    assert code == 0 and report["cptp_ok"] and report["chi_bound_nats"] is not None
    # One Gram state, then the capacity bound's per-state and average outputs.
    assert counts["completeness"] == 1 and counts["gram"] == 1 and counts["eigensolve"] == 3
    if len(channel) != channel.shape[1]:
        assert counts["gram_eigensolve"] == 1
