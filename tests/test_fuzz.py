"""Hypothesis fuzzing of channel documents and of the CLI's float options.

Every input must end in a documented exit code (0, 2 parameter, 3 input
format, 4 numerical) without a traceback or a numpy warning, and a JSON
report written with exit 0 must be strict JSON: no NaN or Infinity.
Dimensions stay at most 4 and Kraus counts at most 6, so each example runs
in milliseconds.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import random_cptp
from qchan.cli import main
from qchan.serialize import channel_to_dict

EXIT_CODES = {0, 2, 3, 4}


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(argv):
    """main(argv) with stderr captured and every warning recorded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    return code, err.getvalue(), caught


def check_run(argv, json_outputs=(), csv_outputs=()):
    code, err, caught = run_cli(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Warning" not in err, (argv, err)
    if code == 0:
        for path in json_outputs:
            with open(path, encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=refuse_constant)
        for path in csv_outputs:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))
    return code


# ------------------------------------------------------- channel documents

numbers = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from([1e150, -1e151, 1e200, 10**400, 0.0, -0.0]),
)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
entries = st.one_of(
    st.lists(numbers, min_size=2, max_size=2),
    st.lists(st.one_of(numbers, junk), max_size=3),
    numbers,
    junk,
)


@st.composite
def matrices(draw, rows, cols):
    """A matrix of the drawn shape, now and then ragged or of the wrong shape."""
    rows = draw(st.sampled_from([rows, rows, rows, 0, 1, 5]))
    cols = draw(st.sampled_from([cols, cols, cols, 1, 5]))
    matrix = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if matrix and draw(st.integers(0, 9)) == 0:
        matrix[-1] = matrix[-1][:-1]
    return matrix


@st.composite
def documents(draw):
    """A channel document: a random CPTP channel, perhaps with one entry
    replaced, or a document of fuzzed fields."""
    n_in, n_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(max(1, -(-n_in // n_out)), 6))
    seed = draw(st.integers(0, 2**32 - 1))
    doc = channel_to_dict(random_cptp(n_in, n_out, k, np.random.default_rng(seed)))
    kind = draw(st.sampled_from(["channel", "entry", "fields"]))
    if kind == "entry":
        op = doc["kraus"][draw(st.integers(0, k - 1))]
        op[draw(st.integers(0, n_out - 1))][draw(st.integers(0, n_in - 1))] = draw(entries)
    elif kind == "fields":
        dims = st.one_of(st.integers(-1, 5), st.sampled_from([129, 2.0, 1.5]), junk)
        doc["n_in"], doc["n_out"] = draw(dims), draw(dims)
        doc["kraus"] = draw(
            st.one_of(st.lists(matrices(n_out, n_in), max_size=6), junk, st.just([[]] * 130))
        )
        for key in draw(st.lists(st.sampled_from(["n_in", "n_out", "kraus"]), max_size=1)):
            del doc[key]
    return doc


@settings(max_examples=150)
@given(
    doc=documents(),
    bits=st.booleans(),
    tol=st.sampled_from([None, "1e-10", "1e-300", "0.5", "1e300"]),
)
def test_fuzzed_channel_documents(doc, bits, tol):
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out = os.path.join(tmp, "ch.json"), os.path.join(tmp, "r.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and Infinity are written as JSON extensions
        argv = ["analyze", "--in", doc_path, "--out", out]
        argv += ["--bits"] * bits + ([f"--tol={tol}"] if tol else [])
        code = check_run(argv, json_outputs=[out])
        assert (code == 0) == os.path.exists(out)


@settings(max_examples=60)
@given(entry=entries, theta=st.floats(0.0, 1.0))
def test_fuzzed_unitary_parameter_files(entry, theta):
    w = [[[1, 0] if i == j else [0, 0] for j in range(3)] for i in range(3)]
    w[1][2] = entry
    with tempfile.TemporaryDirectory() as tmp:
        w_path, out = os.path.join(tmp, "w.json"), os.path.join(tmp, "ch.json")
        with open(w_path, "w", encoding="utf-8") as fh:
            json.dump(w, fh)
        argv = ["family", "--id", "qutrit", f"--theta={theta!r}", "--w", w_path, "--out", out]
        check_run(argv, json_outputs=[out])


# ------------------------------------------------------- CLI float options

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, math.pi, 2 * math.pi, 5e-324, 1e-300, 1e300]),
)


def option(name, value):
    # The "--name=value" form keeps argparse from reading "-inf" as an option.
    return f"--{name}={value!r}"


@settings(max_examples=120)
@given(
    command=st.sampled_from(["family", "bloch", "sweep", "dynamics", "analyze"]),
    family=st.sampled_from(["qubit-a", "qubit-b", "ad", "identity", "qutrit", "ndim-theta0"]),
    x=floats,
    y=floats,
    tol=st.one_of(st.none(), floats),
    size=st.integers(1, 5),
    bits=st.booleans(),
)
def test_fuzzed_float_options(command, family, x, y, tol, size, bits):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json" if command in ("family", "analyze") else "out.csv")
        json_outputs, csv_outputs = [out], []
        if command == "family":
            family = {"identity": "ndim-theta0"}.get(family, family)
            argv = ["family", "--id", family, option("theta", x), option("phi", y),
                    option("p", x), "--n", size + 1]
        elif command == "bloch":
            family = family if family in ("qubit-a", "qubit-b", "identity") else "qubit-a"
            argv = ["bloch", "--family", family, option("theta", x), option("phi", y),
                    "--points", size]
            json_outputs, csv_outputs = [], [out]
        elif command == "sweep":
            argv = ["sweep", option("theta-max", x), option("phi", y), "--points", size + 1]
            json_outputs, csv_outputs = [], [out]
        elif command == "dynamics":
            family = family if family in ("qubit-a", "qubit-b", "ad") else "ad"
            argv = ["dynamics", "--family", family, option("omega", x), option("t-max", y),
                    "--steps", size + 1]
            json_outputs, csv_outputs = [os.path.join(tmp, "out.summary.json")], [out]
        else:
            doc_path = os.path.join(tmp, "ch.json")
            with open(doc_path, "w", encoding="utf-8") as fh:
                json.dump(channel_to_dict(random_cptp(2, 2, size, np.random.default_rng(size))), fh)
            argv = ["analyze", "--in", doc_path]
        argv += ["--out", out] + ["--bits"] * bits + ([option("tol", tol)] if tol is not None else [])
        check_run(argv, json_outputs=json_outputs, csv_outputs=csv_outputs)
