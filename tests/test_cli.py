import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qchan import identity_channel
from qchan.cli import MAX_POINTS, _check_options, build_parser, main
from qchan.families import FAMILIES, family_ids
from qchan.serialize import MAX_DIM, MAX_ENTRY, channel_to_dict, read_channel, write_json_atomic

SQ2 = 1.0 / math.sqrt(2.0)


def run(*argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_family_command_writes_channel_with_validation(tmp_path):
    out = tmp_path / "ad.json"
    code = run("family", "--id", "qubit-a", "--theta", math.pi / 2, "--phi", 0.0, "--out", out)
    assert code == 0
    doc = load(out)
    assert doc["n_in"] == 2 and doc["n_out"] == 2
    k2 = doc["kraus"][1]
    assert abs(k2[0][1][0] - SQ2) <= 1e-12 and abs(k2[0][1][1]) <= 1e-12
    assert abs(k2[1][0][0]) <= 1e-12  # cos(pi/2) corner vanishes
    assert doc["validation"]["selfcomplementary"] is True
    assert doc["validation"]["choi_rank"] == 2
    assert doc["validation"]["cptp_residual"] <= 1e-12


def test_family_command_ndim_theta0(tmp_path):
    out = tmp_path / "n4.json"
    assert run("family", "--id", "ndim-theta0", "--n", 4, "--out", out) == 0
    doc = load(out)
    assert len(doc["kraus"]) == 4
    assert doc["validation"]["selfcomplementary"] is True
    assert doc["validation"]["choi_rank"] == 4


def test_family_command_rejects_out_of_range_theta(tmp_path, capsys):
    code = run("family", "--id", "qubit-a", "--theta", 9.0, "--out", tmp_path / "x.json")
    assert code == 2
    assert "theta" in capsys.readouterr().err


def test_family_round_trips_through_reader(tmp_path):
    out = tmp_path / "ch.json"
    run("family", "--id", "qubit-b", "--theta", 0.4, "--phi", 1.0, "--out", out)
    ch = read_channel(out)
    assert ch.shape == (2, 2, 2)


def test_family_with_fourier_unitary(tmp_path):
    out = tmp_path / "qutrit.json"
    assert run("family", "--id", "qutrit", "--theta", 0.0, "--w", "fourier", "--out", out) == 0
    doc = load(out)
    assert doc["validation"]["selfcomplementary"] is True


def test_analyze_family_channel(tmp_path):
    ch_path = tmp_path / "fam.json"
    run("family", "--id", "qubit-a", "--theta", 0.0, "--out", ch_path)
    report_path = tmp_path / "report.json"
    assert run("analyze", "--in", ch_path, "--out", report_path) == 0
    report = load(report_path)
    assert abs(report["map_entropy_nats"] - 0.56233) <= 1e-4
    assert abs(report["coherent_information_nats"]) <= 1e-10
    assert abs(report["chi_bound_nats"] - 0.215761) <= 1e-5
    assert report["selfcomplementary"] is True and report["choi_rank"] == 2


def test_analyze_identity_and_depolarizing(tmp_path):
    ident = tmp_path / "id.json"
    write_json_atomic(ident, channel_to_dict(identity_channel(2)))
    out = tmp_path / "id_report.json"
    assert run("analyze", "--in", ident, "--out", out) == 0
    report = load(out)
    assert report["selfcomplementary"] is False and report["choi_rank"] == 1

    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    depo = tmp_path / "depo.json"
    write_json_atomic(depo, channel_to_dict(np.array([p / 2 for p in paulis])))
    out2 = tmp_path / "depo_report.json"
    assert run("analyze", "--in", depo, "--out", out2) == 0
    assert load(out2)["choi_rank"] == 4


def test_family_and_analyze_build_no_superoperator(tmp_path, monkeypatch):
    def family_then_analyze(tag):
        ch, report = tmp_path / f"{tag}.json", tmp_path / f"{tag}.report.json"
        assert run("family", "--id", "ndim-theta0", "--n", 8, "--out", ch) == 0
        assert run("analyze", "--in", ch, "--out", report) == 0
        return ch.read_bytes(), report.read_bytes()

    expected = family_then_analyze("free")

    def refuse(kraus):
        raise AssertionError("superoperator built")

    monkeypatch.setattr("qchan.channels.kraus_to_superop", refuse)
    assert family_then_analyze("guarded") == expected


def test_dynamics_and_sweep_build_no_superoperator(tmp_path, monkeypatch):
    def dynamics_then_sweep(tag):
        written = []
        for family in ("qubit-a", "qubit-b", "ad"):
            out = tmp_path / f"{tag}-{family}.csv"
            assert run("dynamics", "--family", family, "--steps", 1030, "--out", out) == 0
            written += [out, out.with_suffix(".summary.json")]
        sweep = tmp_path / f"{tag}-sweep.csv"
        assert run("sweep", "--points", 1030, "--phi", 0.4, "--out", sweep) == 0
        return [path.read_bytes() for path in written + [sweep]]

    expected = dynamics_then_sweep("free")

    def refuse(*args, **kwargs):
        raise AssertionError("superoperator built or reshuffled")

    # Every qchan module that holds the two functions, so that a module
    # importing them by name is guarded too.
    for name in ("kraus_to_superop", "superop_to_choi"):
        for module in [m for key, m in sys.modules.items() if key.startswith("qchan")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert dynamics_then_sweep("guarded") == expected


def test_analyze_and_sweep_build_no_state_and_push_none_through_apply_kraus(tmp_path, monkeypatch):
    ch = tmp_path / "ch.json"
    assert run("family", "--id", "ndim-theta0", "--n", 6, "--out", ch) == 0

    def analyze_then_sweep(tag):
        report, sweep = tmp_path / f"{tag}.report.json", tmp_path / f"{tag}.csv"
        assert run("analyze", "--in", ch, "--out", report) == 0
        assert run("sweep", "--points", 21, "--out", sweep) == 0
        return report.read_bytes(), sweep.read_bytes()

    expected = analyze_then_sweep("free")

    def refuse(*args, **kwargs):
        raise AssertionError("a state was built or pushed through the Kraus operators")

    # Every qchan module that holds the two functions, so that a module
    # importing them by name is guarded too.
    for name in ("apply", "apply_kraus"):
        for module in [m for key, m in sys.modules.items() if key.startswith("qchan")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert analyze_then_sweep("guarded") == expected


@pytest.mark.parametrize("bits", [False, True])
def test_analyze_report_keys_do_not_depend_on_the_verdict(tmp_path, bits):
    flag = ["--bits"] if bits else []
    unit = "bits" if bits else "nats"
    keys = {f"{name}_{unit}" for name in ("map_entropy", "coherent_information", "chi_bound")}
    reports = {}
    families = {
        "cptp": ["--id", "ndim-theta0"],
        "non-cptp": ["--id", "ndim", "--w", "fourier", "--theta", 0.5],
    }
    for tag, family in families.items():
        ch, out = tmp_path / f"{tag}.json", tmp_path / f"{tag}.report.json"
        assert run("family", *family, "--n", 4, "--out", ch) == 0
        assert run("analyze", "--in", ch, *flag, "--out", out) == 0
        reports[tag] = load(out)
    assert reports["cptp"]["cptp_ok"] and not reports["non-cptp"]["cptp_ok"]
    assert set(reports["cptp"]) == set(reports["non-cptp"]) and keys <= set(reports["cptp"])
    assert all(isinstance(reports["cptp"][key], float) for key in keys)
    assert all(reports["non-cptp"][key] is None for key in keys)


def test_analyze_malformed_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("analyze", "--in", bad, "--out", tmp_path / "r.json") == 3
    assert "format" in capsys.readouterr().err


def test_analyze_missing_fields_exits_3(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"n_in": 2}))
    assert run("analyze", "--in", bad, "--out", tmp_path / "r.json") == 3


@pytest.mark.parametrize("field", ["n_in", "n_out"])
@pytest.mark.parametrize("value", [1.7, True, "1"])
def test_analyze_non_integer_dimension_exits_3(tmp_path, capsys, field, value):
    doc = {"n_in": 1, "n_out": 1, "kraus": [[[[1.0, 0.0]]]]}
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("analyze", "--in", bad, "--out", tmp_path / "r.json") == 3
    assert f"'{field}' must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("field", ["n_in", "n_out"])
def test_analyze_dimension_above_cap_exits_3(tmp_path, capsys, field):
    doc = {"n_in": 1, "n_out": 1, "kraus": [[[[1.0, 0.0]]]]}
    doc[field] = MAX_DIM + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("analyze", "--in", bad, "--out", tmp_path / "r.json") == 3
    assert f"'{field}' = {MAX_DIM + 1} is above the dimension cap {MAX_DIM}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
    # At the cap the document is read, and refused only for its 1 x 1 operator.
    doc[field] = MAX_DIM
    bad.write_text(json.dumps(doc))
    assert run("analyze", "--in", bad, "--out", tmp_path / "r.json") == 3
    assert "cap" not in capsys.readouterr().err


def test_analyze_kraus_count_above_cap_exits_3(tmp_path, capsys):
    doc_path, out = tmp_path / "k.json", tmp_path / "r.json"
    k = MAX_DIM + 1
    doc_path.write_text(json.dumps({"n_in": 1, "n_out": 1, "kraus": [[[[k**-0.5, 0.0]]]] * k}))
    assert run("analyze", "--in", doc_path, "--out", out) == 3
    assert f"{k} operators, above the Kraus count cap {MAX_DIM}" in capsys.readouterr().err
    assert not out.exists()
    k = MAX_DIM
    doc_path.write_text(json.dumps({"n_in": 1, "n_out": 1, "kraus": [[[[k**-0.5, 0.0]]]] * k}))
    assert run("analyze", "--in", doc_path, "--out", out) == 0
    report = load(out)
    assert report["kraus_count"] == MAX_DIM and report["cptp_ok"] and report["choi_rank"] == 1


# Matrix entries that are not exactly two JSON numbers, or that have a
# finite part above MAX_ENTRY, are refused.
BAD_ENTRIES = {
    "string part": ["1", 0],
    "bool part": [True, 0],
    "null part": [None, 0],
    "three parts": [1, 0, 5],
    "one part": [1],
    "bare number": 1,
    "string entry": "10",
    "object entry": {"0": 1, "1": 0},
    "bool entry": True,
    "null entry": None,
    "pair of pairs": [[1, 0], [0, 1]],
    "huge real part": [1e200, 0],
    "huge imaginary part": [0, -1e151],
    "huge integer": [10**400, 0],
}


@pytest.mark.parametrize("name, entry", list(BAD_ENTRIES.items()), ids=list(BAD_ENTRIES))
def test_bad_matrix_entries_exit_3_without_warnings(tmp_path, capsys, name, entry):
    doc_path, w_path, out = tmp_path / "ch.json", tmp_path / "w.json", tmp_path / "r.json"
    doc_path.write_text(json.dumps({"n_in": 1, "n_out": 1, "kraus": [[[entry]]]}))
    w = [[[1, 0] if i == j else [0, 0] for j in range(3)] for i in range(3)]
    w[0][0] = entry
    w_path.write_text(json.dumps(w))
    # An entry of the wrong shape or part type gets one message, in a channel
    # document and a --w file alike; only a part above the cap gets another.
    if name.startswith("huge"):
        message = f"matrix entry part above the magnitude cap {MAX_ENTRY:g}"
    else:
        message = "matrix entries must be [re, im] pairs of two JSON numbers"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ("analyze", "--in", doc_path, "--out", out),
            ("family", "--id", "qutrit", "--theta", 0.2, "--w", w_path, "--out", out),
        ):
            assert run(*argv) == 3
            err = capsys.readouterr().err
            assert message in err and "Warning" not in err, (argv[0], err)
    assert not out.exists()


def test_matrix_entries_at_the_magnitude_cap_and_integer_parts_are_read(tmp_path):
    doc_path, out = tmp_path / "ch.json", tmp_path / "r.json"
    doc_path.write_text(json.dumps({"n_in": 1, "n_out": 1, "kraus": [[[[1e150, -1e150]]]]}))
    assert run("analyze", "--in", doc_path, "--out", out) == 0
    assert not load(out)["cptp_ok"]
    doc_path.write_text(json.dumps({"n_in": 1, "n_out": 1, "kraus": [[[[1, 0]]]]}))
    assert run("analyze", "--in", doc_path, "--out", out) == 0
    assert load(out)["cptp_ok"]


@pytest.mark.parametrize("family", ["ndim", "ndim-theta0"])
@pytest.mark.parametrize("n", [MAX_DIM + 1, 10_000_000])
def test_family_dimension_above_cap_exits_2(tmp_path, capsys, family, n):
    out = tmp_path / "big.json"
    assert run("family", "--id", family, "--n", n, "--out", out) == 2
    assert f"--n {n} is above the dimension cap {MAX_DIM}" in capsys.readouterr().err
    assert not out.exists()
    assert run("family", "--id", "qubit-a", "--n", MAX_DIM, "--out", out) == 0


@pytest.mark.parametrize(
    "family", [["ndim", "--w", "identity"], ["ndim", "--w", "fourier"], ["ndim-theta0"], ["qubit-a"]]
)
@pytest.mark.parametrize("n", [-3, 0, 1])
def test_family_dimension_below_2_exits_2_before_anything_is_built(
    tmp_path, capsys, monkeypatch, family, n
):
    def refuse(*args):
        raise AssertionError("built before --n was checked")

    monkeypatch.setattr("qchan.cli._build", refuse)
    out = tmp_path / "small.json"
    assert run("family", "--id", *family, "--n", n, "--out", out) == 2
    assert capsys.readouterr().err == f"qchan: --n {n} is below the dimension floor 2\n"
    assert not out.exists()


GRID_COMMANDS = [
    ["dynamics", "--steps"],
    ["sweep", "--points"],
    ["bloch", "--points"],
    ["bloch", "--batch", "--points"],
]


@pytest.mark.parametrize("command", GRID_COMMANDS)
@pytest.mark.parametrize("size", [MAX_POINTS + 1, 3_000_000_000])
def test_grid_above_cap_exits_2_and_writes_nothing(tmp_path, capsys, command, size):
    assert run(*command, size, "--out", tmp_path / "big.csv") == 2
    assert f"{command[-1]} {size} is above the grid cap {MAX_POINTS}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_grid_at_cap_is_accepted(tmp_path, command):
    # Checked, not run: a grid at the cap is a long computation.
    argv = [*command, str(MAX_POINTS), "--out", str(tmp_path / "cap.csv")]
    _check_options(build_parser().parse_args(argv))


ROOT = Path(__file__).resolve().parents[1]


def run_process(*argv, cwd, program=("-m", "qchan.cli")):
    """``python -m qchan.cli`` (or another ``program``) in a fresh
    interpreter, with this checkout's package first on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *program, *map(str, argv)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_entry_point_exit_codes(tmp_path):
    ok = run_process("family", "--id", "qubit-a", "--theta", "0.4", "--out", "ch.json", cwd=tmp_path)
    assert ok.returncode == 0 and ok.stderr == ""
    assert len(read_channel(tmp_path / "ch.json")) == 2
    usage = run_process("family", "--id", "no-such-family", "--out", "x.json", cwd=tmp_path)
    assert usage.returncode == 2 and "invalid choice" in usage.stderr
    (tmp_path / "bad.json").write_text("{not json")
    bad = run_process("analyze", "--in", "bad.json", "--out", "r.json", cwd=tmp_path)
    assert bad.returncode == 3 and "input format error" in bad.stderr
    for result in (ok, usage, bad):
        assert "Traceback" not in result.stderr
    assert sorted(os.listdir(tmp_path)) == ["bad.json", "ch.json"]


def test_figure_script_data_follows_the_product_rule(tmp_path):
    # For a pure input and the channel on one qubit, the output concurrence
    # is the input's times the Choi state's, which is |sin t - cos t| / sqrt 2
    # for the first qubit family at t = k pi / 8.
    fig = tmp_path / "fig"
    done = run_process(fig, cwd=tmp_path, program=(str(ROOT / "scripts" / "make_figure_data.py"),))
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(fig)) == sorted(
        [f"bloch_k{k}.csv" for k in range(9)]
        + ["entanglement_evolution.csv", "sweep.csv", "trajectory.csv", "trajectory.summary.json"]
    )
    table = np.loadtxt(fig / "entanglement_evolution.csv", delimiter=",", skiprows=2)
    t = np.arange(table.shape[1] - 1) * math.pi / 8
    expected = table[:, :1] * np.abs(np.sin(t) - np.cos(t)) / math.sqrt(2)
    assert float(np.abs(table[:, 1:] - expected).max()) <= 1e-11


def test_repeated_main_calls_share_one_parser_and_match_fresh_processes(
    tmp_path, monkeypatch, capsys
):
    # Each command runs after others that set options it leaves at their
    # defaults, and must write what a fresh process writes.
    sequence = [
        ("bloch", "--batch", "--points", 32, "--out", "batch.csv"),
        ("bloch", "--points", 32, "--out", "single.csv"),
        ("sweep", "--bits", "--points", 11, "--out", "bits.csv"),
        ("sweep", "--points", 11, "--out", "nats.csv"),
        ("sweep", "--tol", "1e-9", "--out", "refused.csv"),
        ("family", "--id", "qubit-a", "--theta", 0.4, "--out", "ch.json"),
        ("analyze", "--in", "ch.json", "--out", "report.json"),
    ]
    assert build_parser() is build_parser()
    # argparse wraps the usage line at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(shared)
    for argv in sequence:
        expected = run_process(*argv, cwd=fresh)
        if argv[1] == "--tol":
            with pytest.raises(SystemExit) as refused:
                run(*argv)
            assert refused.value.code == expected.returncode == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: qchan sweep ") and err == expected.stderr
        else:
            assert run(*argv) == expected.returncode == 0
            assert capsys.readouterr().err == expected.stderr == ""
    assert (shared / "nats.csv").read_text().splitlines()[0].endswith(
        "chi_bound_nats,map_entropy_nats"
    )
    names = sorted(os.listdir(fresh))
    assert sorted(os.listdir(shared)) == names
    assert "single.csv" in names and "refused.csv" not in names
    for name in names:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


def test_analyze_missing_input_file_exits_3(tmp_path, capsys):
    assert run("analyze", "--in", tmp_path / "missing.json", "--out", tmp_path / "r.json") == 3
    assert "format" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# Files that json cannot decode: nesting beyond the recursion limit, bytes
# that are not UTF-8, and an integer beyond Python's 4300-digit limit.
UNDECODABLE = {
    "nested 5000 deep": b"[" * 5000 + b"]" * 5000,
    "not UTF-8": b'{"n_in": 1, "n_out": 1, "kraus": [[[[1, 0]]]], "note": "\xff\xfe"}',
    "5000-digit integer": b'{"n_in": 1, "n_out": 1, "kraus": [[[[' + b"9" * 5000 + b", 0]]]]}",
}


@pytest.mark.parametrize("command", ["analyze", "family"])
@pytest.mark.parametrize("content", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
def test_undecodable_input_file_exits_3(tmp_path, capsys, command, content):
    source, out = tmp_path / "in.json", tmp_path / "out.json"
    source.write_bytes(content)
    if command == "analyze":
        argv = ["analyze", "--in", source]
    else:
        argv = ["family", "--id", "qutrit", "--w", source]
    assert run(*argv, "--out", out) == 3
    assert "input format error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_w_entry_exits_3(tmp_path, capsys, value):
    w = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    w[1][1][0] = value
    source, out = tmp_path / "w.json", tmp_path / "out.json"
    source.write_text(json.dumps(w))
    assert run("family", "--id", "qutrit", "--w", source, "--out", out) == 3
    assert capsys.readouterr().err == "qchan: input format error: matrix has non-finite entries\n"
    assert os.listdir(tmp_path) == ["w.json"]


def _operator(rows):
    """An operator as the rows of [re, im] pairs of a channel document."""
    rows = np.asarray(rows, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in rows]


EYE = _operator(np.eye(2))
WIDE = _operator(np.eye(2, 3))
NAN = _operator([[math.nan, 0.0], [0.0, 1.0]])
INF = _operator([[math.inf, 0.0], [0.0, 1.0]])

# Documents that are not a channel, and the message of the check that refuses
# each.  The dimensions are checked before any operator is read, and each
# operator's format and finiteness before any shape is: a document with two
# faults gets the message of the first check that fails.
NOT_A_CHANNEL = {
    "operator of the wrong shape": (
        2, [EYE, WIDE], "Kraus operator shape (2, 3) differs from (2, 2)"
    ),
    "n_in not the operators'": (3, [EYE], "Kraus operator shape (2, 2) differs from (2, 3)"),
    "n_in = 0": (0, [EYE], "dimensions must be positive"),
    "n_in = -1": (-1, [EYE], "dimensions must be positive"),
    "NaN entry": (2, [EYE, NAN], "matrix has non-finite entries"),
    "Infinity entry": (2, [INF], "matrix has non-finite entries"),
    "wrong shape, then NaN": (2, [WIDE, NAN], "matrix has non-finite entries"),
    "NaN, then not a matrix": (2, [NAN, 5], "matrix has non-finite entries"),
    "n_in = 0 and not a matrix": (0, [5], "dimensions must be positive"),
}


@pytest.mark.parametrize("n_in,ops,message", list(NOT_A_CHANNEL.values()), ids=list(NOT_A_CHANNEL))
def test_analyze_refuses_a_document_that_is_not_a_channel(tmp_path, capsys, n_in, ops, message):
    doc, out = tmp_path / "ch.json", tmp_path / "r.json"
    doc.write_text(json.dumps({"n_in": n_in, "n_out": 2, "kraus": ops}))
    assert run("analyze", "--in", doc, "--out", out) == 3
    assert capsys.readouterr().err == f"qchan: input format error: {message}\n"
    assert not out.exists()


def _document(kraus):
    return {"n_in": 2, "n_out": 2, "kraus": kraus}


# Refusals with their input file, if any, which follows the last option of
# the arguments, the exit code and the one stderr line.
REFUSALS = {
    "document not an object": (
        ["analyze", "--in"], [], 3, "input format error: channel document must be a JSON object"
    ),
    "no operators": (
        ["analyze", "--in"],
        _document([]),
        3,
        "input format error: 'kraus' must be a nonempty list of matrices",
    ),
    "operator not a matrix": (
        ["analyze", "--in"],
        _document([5]),
        3,
        "input format error: a matrix must be a list of rows of [re, im] pairs",
    ),
    "operator without rows": (
        ["analyze", "--in"],
        _document([[]]),
        3,
        "input format error: matrix rows are empty or ragged",
    ),
    "ragged operator": (
        ["analyze", "--in"],
        _document([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]]),
        3,
        "input format error: matrix rows are empty or ragged",
    ),
    "2 x 2 --w for the qutrit": (
        ["family", "--id", "qutrit", "--w"],
        _operator(np.eye(2)),
        2,
        "unitary parameter has shape (2, 2), expected (3, 3)",
    ),
    "bloch --points 0": (["bloch", "--points", 0], None, 2, "grid size must be at least 1"),
    "sweep --points 0": (["sweep", "--points", 0], None, 2, "grid size must be at least 1"),
}


@pytest.mark.parametrize("argv,content,code,message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refusal_exit_code_and_line(tmp_path, capsys, argv, content, code, message):
    argv = list(argv)
    if content is not None:
        source = tmp_path / "in.json"
        source.write_text(json.dumps(content))
        argv.append(source)
    written = os.listdir(tmp_path)
    assert run(*argv, "--out", tmp_path / "out") == code
    err = capsys.readouterr().err
    assert err == f"qchan: {message}\n" and "Traceback" not in err
    assert os.listdir(tmp_path) == written


def test_zero_entropies_are_written_as_positive_zero(tmp_path):
    ident = tmp_path / "id.json"
    write_json_atomic(ident, channel_to_dict(identity_channel(2)))
    assert run("analyze", "--in", ident, "--out", tmp_path / "id_report.json") == 0
    assert '"map_entropy_nats": 0.0,' in (tmp_path / "id_report.json").read_text()
    assert run("dynamics", "--family", "ad", "--steps", 4, "--out", tmp_path / "ad.csv") == 0
    assert (tmp_path / "ad.csv").read_text().splitlines()[1] == "0,0,0.5,1,0"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--in", "missing.json", "--tol", "nan"],
        ["analyze", "--in", "missing.json", "--tol", "inf"],
        ["family", "--id", "qubit-a", "--theta", "nan"],
        ["family", "--id", "ad", "--p", "nan"],
        ["sweep", "--theta-max", "nan"],
        ["sweep", "--phi", "inf"],
        ["bloch", "--theta", "nan"],
        ["dynamics", "--omega", "nan"],
        ["dynamics", "--omega", "inf"],
        ["dynamics", "--t-max", "inf"],
        ["dynamics", "--t-max=-inf"],
        ["dynamics", "--omega", "1e200", "--t-max", "1e200"],
    ],
)
def test_non_finite_arguments_exit_2_without_warnings(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Warning" not in err
    assert not out.exists()


CLI_FAMILY_OPTION = {"family": "--id", "bloch": "--family", "dynamics": "--family"}
# The ids each command has accepted since the first release, in order.
CLI_FAMILY_IDS = {
    "family": ("qubit-a", "qubit-b", "ad", "qutrit", "ndim", "ndim-theta0"),
    "bloch": ("qubit-a", "qubit-b", "identity"),
    "dynamics": ("qubit-a", "qubit-b", "ad"),
}


@pytest.mark.parametrize("command", sorted(CLI_FAMILY_OPTION))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_table_decides_what_each_command_accepts(tmp_path, capsys, command, family):
    out = tmp_path / "out.csv"
    argv = [command, CLI_FAMILY_OPTION[command], family, "--out", out]
    argv += {"family": [], "bloch": ["--points", 8], "dynamics": ["--steps", 8]}[command]
    assert family_ids(command) == CLI_FAMILY_IDS[command]
    if family in CLI_FAMILY_IDS[command]:
        assert run(*argv) == 0
        assert out.exists()
    else:
        with pytest.raises(SystemExit) as refused:
            run(*argv)
        assert refused.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    ("argv", "unknown"),
    [
        (["sweep", "--tol", "1e-9"], "--tol 1e-9"),
        (["bloch", "--bits"], "--bits"),
        (["family", "--id", "ad", "--bits"], "--bits"),
        (["dynamics", "--steps", 8, "--tol", "1e-9"], "--tol 1e-9"),
        (["analyze", "--in", "missing.json", "--bogus"], "--bogus"),
        (["family", "--id", "ad", "--tol", "1e-9"], "--tol 1e-9"),
    ],
)
def test_unknown_option_is_refused_by_the_subcommand(tmp_path, capsys, argv, unknown):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as refused:
        run(*argv, "--out", out)
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: qchan {argv[0]} ")
    assert err.endswith(f"qchan {argv[0]}: error: unrecognized arguments: {unknown}\n")
    assert not out.exists()


def test_analyze_reports_structural_fields_for_broken_channels(tmp_path):
    broken = tmp_path / "broken.json"
    write_json_atomic(broken, channel_to_dict(np.array([np.eye(2, dtype=complex)] * 2)))
    out = tmp_path / "rep.json"
    assert run("analyze", "--in", broken, "--out", out) == 0
    report = load(out)
    assert report["cptp_ok"] is False and report["map_entropy_nats"] is None


def test_sweep_values(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--points", 101, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == [
        "theta",
        "negativity_numeric",
        "negativity_closed",
        "concurrence_numeric",
        "concurrence_closed",
        "chi_bound_nats",
        "map_entropy_nats",
    ]
    assert rows.shape == (101, 7)
    # endpoints: negativity 1/4; midpoint row at theta = pi/4: both zero
    assert abs(rows[0, 1] - 0.25) <= 1e-9 and abs(rows[-1, 1] - 0.25) <= 1e-9
    mid = rows[50]
    assert abs(mid[0] - math.pi / 4) <= 1e-12
    assert abs(mid[1]) <= 1e-9 and abs(mid[3]) <= 1e-9
    # numeric and closed columns agree
    assert np.abs(rows[:, 1] - rows[:, 2]).max() <= 1e-9
    assert np.abs(rows[:, 3] - rows[:, 4]).max() <= 1e-9
    # Holevo anchor at theta = 0
    assert abs(rows[0, 5] - 0.215761) <= 1e-5


def test_sweep_at_phi_follows_the_negativity_closed_form(tmp_path):
    # The Gram state of the first qubit family is diagonal at every phi,
    # with a - d = (sin^2 t - cos^2 t) / 2, so its negativity is |cos 2t| / 4
    # at any phi.  The phase makes every block complex, the one complex
    # block choi_measures gets from the CLI; 1e-11 covers the %.12g rounding
    # of the theta column.
    out = tmp_path / "sweep-phi.csv"
    assert run("sweep", "--phi", 0.9, "--points", 1001, "--out", out) == 0
    _, rows = read_csv(out)
    theta, numeric, closed = rows[:, :3].T
    worst = max(float(np.abs(numeric - closed).max()),
                float(np.abs(numeric - np.abs(np.cos(2 * theta)) / 4).max()))
    assert worst <= 1e-11


def test_sweep_bits_flag_rescales_and_renames(tmp_path):
    nats = tmp_path / "n.csv"
    bits = tmp_path / "b.csv"
    run("sweep", "--points", 11, "--out", nats)
    run("sweep", "--points", 11, "--bits", "--out", bits)
    h_nats, r_nats = read_csv(nats)
    h_bits, r_bits = read_csv(bits)
    assert h_bits[5] == "chi_bound_bits" and h_bits[6] == "map_entropy_bits"
    assert np.abs(r_bits[:, 6] - r_nats[:, 6] / math.log(2.0)).max() <= 1e-9
    assert np.abs(r_bits[:, 1] - r_nats[:, 1]).max() == 0.0  # entanglement columns untouched


def test_sweep_parameter_validation(tmp_path):
    assert run("sweep", "--points", 1, "--out", tmp_path / "s.csv") == 2
    assert run("sweep", "--theta-max", 3.0, "--out", tmp_path / "s.csv") == 2


def test_bloch_single_theta_line_image(tmp_path):
    out = tmp_path / "line.csv"
    assert run("bloch", "--theta", math.pi / 4, "--points", 400, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "z"]
    centered = rows - rows.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    assert np.abs(sv[1:]).max() <= 1e-9


def test_bloch_identity_has_unit_norm_rows(tmp_path):
    out = tmp_path / "sphere.csv"
    assert run("bloch", "--family", "identity", "--points", 128, "--out", out) == 0
    _, rows = read_csv(out)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12


def test_bloch_theta_zero_centroid(tmp_path):
    out = tmp_path / "shift.csv"
    assert run("bloch", "--theta", 0.0, "--points", 500, "--out", out) == 0
    _, rows = read_csv(out)
    assert abs(rows[:, 2].mean() + 0.5) <= 0.01


def test_bloch_batch_writes_nine_files(tmp_path):
    out = tmp_path / "img.csv"
    assert run("bloch", "--batch", "--points", 32, "--out", out) == 0
    for k in range(9):
        assert (tmp_path / f"img_k{k}.csv").exists()
    # The batch maps its nine members as one stack; each file has the bytes
    # of the single run at theta = k pi/8.
    for family in ("qubit-a", "qubit-b", "identity"):
        common = ["--family", family, "--phi", 0.3, "--points", 300]
        assert run("bloch", "--batch", *common, "--out", tmp_path / f"{family}.csv") == 0
        for k in range(9):
            single = tmp_path / f"{family}-single.csv"
            assert run("bloch", "--theta", repr(k * math.pi / 8), *common, "--out", single) == 0
            batch = tmp_path / f"{family}_k{k}.csv"
            assert batch.read_bytes() == single.read_bytes(), (family, k)


def test_dynamics_summary_values(tmp_path):
    out = tmp_path / "traj.csv"
    assert run("dynamics", "--family", "qubit-a", "--omega", 1.0, "--t-max", math.pi,
               "--steps", 4096, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["t", "theta", "negativity", "concurrence", "map_entropy_nats"]
    assert rows.shape[0] == 4097
    summary = load(tmp_path / "traj.summary.json")
    assert abs(summary["non_markovianity_positive_variation"] - 0.5) <= 1e-5
    assert summary["increase_duration"] > 0.0


def test_dynamics_amplitude_damping_scores_zero(tmp_path):
    out = tmp_path / "ad.csv"
    assert run("dynamics", "--family", "ad", "--t-max", 4.0, "--steps", 256, "--out", out) == 0
    summary = load(tmp_path / "ad.summary.json")
    assert summary["non_markovianity_positive_variation"] == 0.0
    assert summary["increase_duration"] == 0.0


def test_dynamics_bits_flag_renames_entropy_column(tmp_path):
    out = tmp_path / "tb.csv"
    assert run("dynamics", "--steps", 8, "--bits", "--out", out) == 0
    header, rows = read_csv(out)
    assert header[-1] == "map_entropy_bits"
    assert rows[:, -1].max() <= 1.0 + 1e-9  # qubit channel: at most one bit


def test_dynamics_two_step_grid(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run("dynamics", "--steps", 2, "--out", out) == 0
    _, rows = read_csv(out)
    assert rows.shape[0] == 3  # two intervals, three samples
    assert (tmp_path / "tiny.summary.json").exists()


def test_dynamics_step_validation(tmp_path):
    assert run("dynamics", "--steps", 1, "--out", tmp_path / "x.csv") == 2


def test_driven_records_follow_the_closed_forms(tmp_path):
    # The Choi state of the first qubit family has concurrence
    # ||sin t| - |cos t|| / sqrt 2 and negativity |cos 2t| / 4 at every t,
    # and amplitude damping's, with p in the theta column, has concurrence
    # sqrt(1 - p) and negativity (1 - p) / 2; 1e-11 covers the %.12g
    # rounding of the theta column.
    closed_forms = {
        "qubit-a": lambda t: (np.abs(np.abs(np.sin(t)) - np.abs(np.cos(t))) / math.sqrt(2),
                              np.abs(np.cos(2 * t)) / 4),
        "ad": lambda p: (np.sqrt(1 - p), (1 - p) / 2),
    }
    for family, closed in closed_forms.items():
        out = tmp_path / f"{family}.csv"
        assert run("dynamics", "--family", family, "--steps", 4096, "--out", out) == 0
        _, theta, negativity, concurrence, _ = np.loadtxt(out, delimiter=",", skiprows=1).T
        conc, neg = closed(theta)
        worst = max(float(np.abs(concurrence - conc).max()), float(np.abs(negativity - neg).max()))
        assert worst <= 1e-11, family


def test_driven_record_of_qubit_b_follows_a_numpy_rebuild(tmp_path):
    # qubit-b's Kraus operators are rebuilt from the theta column and each
    # measure is recomputed with numpy alone: the negativity from eigvalsh of
    # the partial transpose, the concurrence from the singular values of tau
    # and the map entropy from the Gram eigenvalues.  1e-11 covers the %.12g
    # rounding of theta.
    out = tmp_path / "qubit-b.csv"
    assert run("dynamics", "--family", "qubit-b", "--steps", 4096, "--out", out) == 0
    _, theta, negativity, concurrence, entropy = np.loadtxt(out, delimiter=",", skiprows=1).T
    s, c, n = np.sin(theta) / math.sqrt(2), np.cos(theta), len(theta)
    kraus = np.zeros((n, 2, 2, 2))
    kraus[:, 0, 0, 0] = 1.0
    kraus[:, 0, 1, 1] = kraus[:, 1, 0, 1] = s
    kraus[:, 1, 1, 1] = c
    # Columns of V are vec(K_a) in the Choi ordering, input index first: rho = V V^T / 2.
    v = kraus.transpose(0, 3, 2, 1).reshape(n, 4, 2)
    rho = v @ v.transpose(0, 2, 1) / 2
    pt = rho.reshape(n, 2, 2, 2, 2).transpose(0, 3, 2, 1, 4).reshape(n, 4, 4)
    neg = np.maximum(0.0, (np.abs(np.linalg.eigvalsh(pt)).sum(axis=1) - 1) / 2)
    # Wootters' lambdas are the singular values of tau = V^T (sigma_y x sigma_y) V / 2.
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
    lam = np.linalg.svd(v.transpose(0, 2, 1) @ yy @ v / 2, compute_uv=False)
    conc = np.maximum(0.0, lam[:, 0] - lam[:, 1:].sum(axis=1))
    # The map entropy from the Gram state G / 2, G_ab = tr(K_a^T K_b).
    gram = np.einsum("nari,nbri->nab", kraus, kraus) / 2
    ev = np.linalg.eigvalsh(gram)
    ev = np.where(ev > 1e-14, ev, 1.0)
    ent = -(ev * np.log(ev)).sum(axis=1)
    worst = max(float(np.abs(negativity - neg).max()), float(np.abs(concurrence - conc).max()),
                float(np.abs(entropy - ent).max()))
    assert worst <= 1e-11


@pytest.mark.parametrize("t_max", ["1e-320", "5e-324"])
def test_dynamics_subnormal_t_max_exits_2(tmp_path, capsys, t_max):
    # linspace of 4097 subnormal samples repeats values: no time grid.
    out = tmp_path / "sub.csv"
    assert run("dynamics", "--t-max", t_max, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == "qchan: times must be strictly ascending with at least two entries\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze"])
def test_eigensolver_failure_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # The analyze document's 3 x 3 Gram state is solved by LAPACK's eigvalsh.
    doc = tmp_path / "ch.json"
    assert run("family", "--id", "ndim-theta0", "--n", 3, "--out", doc) == 0
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    out = tmp_path / "out"
    assert run(command, "--in", doc, "--out", out) == 4
    assert capsys.readouterr().err == "qchan: numerical failure: Eigenvalues did not converge\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ch.json"]


def test_dynamics_reaches_no_eigensolver(tmp_path, monkeypatch):
    # qubit-b's Choi states are dense, but every measure of a two-operator
    # block takes a closed form: no eigensolve is left to fail.
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigvalsh", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    out = tmp_path / "b.csv"
    assert run("dynamics", "--family", "qubit-b", "--steps", 8, "--out", out) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "b.summary.json"]
    _, rows = read_csv(out)
    assert rows.shape == (9, 5)


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("sweep", "--points", 25, "--out", a)
    run("sweep", "--points", 25, "--out", b)
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    run("family", "--id", "qubit-a", "--theta", 1.0, "--out", c)
    run("family", "--id", "qubit-a", "--theta", 1.0, "--out", d)
    assert c.read_bytes() == d.read_bytes()


def test_unwritable_output_path_is_parameter_error(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nodir" / "x.csv"
    assert run("sweep", "--points", 5, "--out", missing) == 2
    # The error names --out, not the random name of the temporary file, so
    # identical invocations print identical stderr.
    monkeypatch.chdir(tmp_path)
    write_json_atomic("ch.json", channel_to_dict(identity_channel(2)))
    (tmp_path / "adir").mkdir()
    for out in ("missing/x.json", "adir"):
        capsys.readouterr()
        errors = []
        for _ in range(2):
            assert run("analyze", "--in", "ch.json", "--out", out) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert f"'{out}'" in errors[0] and ".qchan-" not in errors[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "ch.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--id", "qubit-a"],
        ["analyze", "--in", "channel.json"],
        ["sweep", "--points", "5"],
        ["bloch", "--points", "5"],
        ["bloch", "--batch", "--points", "5"],
        ["dynamics", "--steps", "4"],
    ],
    ids=["family", "analyze", "sweep", "bloch", "bloch-batch", "dynamics"],
)
def test_empty_output_path_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    # Unrefused, an empty --out puts its temporary file in the parent of the
    # working directory and then fails to rename it to ''.
    work = tmp_path / "work"
    work.mkdir()
    write_json_atomic(str(work / "channel.json"), channel_to_dict(identity_channel(2)))
    monkeypatch.chdir(work)
    assert main(argv + ["--out", ""]) == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["channel.json", "work"]


def test_csv_uses_lf_and_dot_decimal(tmp_path):
    out = tmp_path / "fmt.csv"
    run("sweep", "--points", 5, "--out", out)
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert b"," in raw and b";" not in raw.splitlines()[0]
