"""The bulk JSON and CSV writers against their value-by-value references.

``write_json_atomic`` must write the bytes of ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"`` with every float array given as its nested list,
and ``cli._csv`` the bytes of per-value ``f"{float(v):.12g}"`` formatting.
Both references are kept here as the independent routes.
"""

import gc
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qchan import cli
from qchan.channels import validate_channel
from qchan.cli import _csv, _g12_significands, _g12_tables, main
from qchan.families import FAMILIES, dft_matrix
from qchan.linalg import STACK_BLOCK
from qchan.serialize import (
    ChannelFormatError,
    channel_to_dict,
    matrix_from_pairs,
    read_channel,
    write_json_atomic,
    write_text_atomic,
)

from conftest import random_cptp

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e150, 0.1, 1 / 3]


def reference_json(obj) -> str:
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in obj.items()}
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


def reference_csv(header, table) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(f"{float(v):.12g}" for v in row) for row in table)
    return "\n".join(lines) + "\n"


def written(tmp_path, obj) -> str:
    path = tmp_path / "out.json"
    write_json_atomic(path, obj)
    return path.read_text(encoding="utf-8")


def pair_document(channel) -> dict:
    """The channel document built entry by entry, as [re, im] lists."""
    _, n_out, n_in = channel.shape
    return {
        "n_in": n_in,
        "n_out": n_out,
        "kraus": [
            [[[float(z.real), float(z.imag)] for z in row] for row in op]
            for op in channel
        ],
    }


def same_bits(back, channel) -> bool:
    """read_channel gave back the float64 bits of the source array."""
    source = np.asarray(channel, dtype=complex)
    return back.shape == source.shape and back.tobytes() == source.tobytes()


FAMILY_OPTIONS = [
    (name, dim)
    for name, family in FAMILIES.items()
    if "family" in family.commands
    for dim in ((2, 5, 16, 32) if "dim" in family.params else (None,))
]


@pytest.mark.parametrize("name,dim", FAMILY_OPTIONS)
def test_family_output_is_the_json_module_encoding(tmp_path, name, dim):
    argv = ["family", "--id", name, "--theta", "0.3", "--phi", "0.2", "--p", "0.4"]
    argv += ["--w", "fourier"] + (["--n", str(dim)] if dim else [])
    out = tmp_path / "ch.json"
    assert main(argv + ["--out", str(out)]) == 0
    family = FAMILIES[name]
    options = {"theta": 0.3, "phi": 0.2, "p": 0.4, "dim": dim}
    if "w" in family.params:
        options["w"] = dft_matrix(dim or 3)
    channel = family.build(*(options[p] for p in family.params))
    validation = validate_channel(channel)
    doc = pair_document(channel)
    doc["validation"] = {
        "cptp_residual": validation.cptp_residual,
        "selfcomplementary": validation.selfcomplementary,
        "choi_rank": validation.choi_rank,
    }
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert same_bits(read_channel(out), channel)


@pytest.mark.parametrize("n_in,n_out", [(1, 3), (2, 3), (3, 2), (4, 1), (5, 7), (32, 32)])
@pytest.mark.parametrize("k_of_n", [lambda n: 1, lambda n: n, lambda n: 2 * n])
def test_random_channel_documents_match_the_json_module(tmp_path, n_in, n_out, k_of_n):
    k = max(k_of_n(n_in), -(-n_in // n_out))  # a CPTP channel needs k n_out >= n_in
    channel = random_cptp(n_in, n_out, k, np.random.default_rng(100 * n_in + n_out + k))
    doc = channel_to_dict(channel)
    assert doc["kraus"].shape == (k, n_out, n_in, 2)
    expected = json.dumps(pair_document(channel), indent=2, sort_keys=True) + "\n"
    assert written(tmp_path, doc) == expected
    assert same_bits(read_channel(tmp_path / "out.json"), channel)


@pytest.mark.parametrize("shape", [(10,), (5, 2), (2, 1, 5), (1, 2, 5, 1), (0,), (2, 0), (3, 0, 2)])
def test_special_floats_are_written_as_the_json_module_writes_them(tmp_path, shape):
    values = np.resize(np.array(SPECIAL), shape)
    obj = {"a": values, "z": values[..., ::-1].copy(), "m": {"x": [1.5, None]}}
    assert written(tmp_path, obj) == reference_json(obj)


def test_zero_and_negative_zero_in_one_operator_keep_their_signs(tmp_path):
    ops = np.zeros((2, 2, 3), dtype=complex)
    ops.real[0] = [[0.0, -0.0, 0.5], [-0.0, 0.0, -0.0]]
    ops.imag[0] = [[-0.0, 0.0, -0.0], [0.5, -0.0, 0.0]]
    ops.real[1] = -0.0
    text = written(tmp_path, channel_to_dict(ops))
    assert text == json.dumps(pair_document(ops), indent=2, sort_keys=True) + "\n"
    assert text.count("-0.0") == 3 + 3 + 6


def test_float32_arrays_are_written_as_their_float64_values(tmp_path):
    values = np.array([-0.0, 0.0, 0.1, 1 / 3, 1e-45, 3.4e38, -2.5, 1e16], dtype=np.float32)
    for shape in ((8,), (2, 4), (2, 2, 2)):
        obj = {"a": values.reshape(shape), "b": values[::-1].reshape(shape)}
        assert written(tmp_path, obj) == reference_json(obj)
    assert "0.10000000149011612" in written(tmp_path, {"a": values})


def test_empty_document_and_a_document_without_arrays(tmp_path):
    assert written(tmp_path, {}) == reference_json({})
    obj = {"b": True, "a": None, "c": "text é\n", "d": {"z": 1, "y": [1, {"q": 2.5}]}}
    assert written(tmp_path, obj) == reference_json(obj)
    # Top-level scalars go to the C encoder; the strategy below draws no NaN.
    scalars = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "ψ": "θ ☃ \u2028 \x00"}
    assert written(tmp_path, scalars) == reference_json(scalars)


finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL),
)
plain_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@given(obj=st.dictionaries(st.text(max_size=6), finite_arrays | plain_values, max_size=5))
def test_bulk_writer_matches_the_json_module(tmp_path_factory, obj):
    assert written(tmp_path_factory.mktemp("w"), obj) == reference_json(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_array_value_raises_and_writes_nothing(tmp_path, bad):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json_atomic(path, {"kraus": np.array([[0.5, bad]]), "n_in": 1})
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_part_that_raises_midway_leaves_the_target_and_no_temporary(tmp_path, existing):
    path = tmp_path / "out.csv"
    if existing:
        path.write_text("old\n")

    def parts():
        yield "1,2\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        write_text_atomic(path, "a,b\n", parts())
    assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
    if existing:
        assert path.read_text() == "old\n"


def test_csv_formats_each_block_as_it_is_drawn(tmp_path, monkeypatch):
    formatted = []
    monkeypatch.setattr(cli, "_g12", lambda block: formatted.append(len(block)) or "")
    parts = _csv(["x"], np.zeros((3 * STACK_BLOCK, 1)))
    assert next(parts) == "x\n" and formatted == []
    for count, _ in enumerate(parts, 1):
        assert len(formatted) == count
    assert formatted == [STACK_BLOCK] * 3

    # A block that fails to format stops the write there and leaves no file.
    formatted.clear()

    def fail_on_the_second(block):
        formatted.append(len(block))
        if len(formatted) == 2:
            raise ValueError("second block")
        return ""

    monkeypatch.setattr(cli, "_g12", fail_on_the_second)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--points", str(3 * STACK_BLOCK), "--out", str(out)]) == 2
    assert formatted == [STACK_BLOCK] * 2 and os.listdir(tmp_path) == []


# A part json.loads can give that matrix_from_pairs refuses, with its message.
BAD_PARTS = {
    "NaN": (math.nan, "matrix has non-finite entries"),
    "Infinity": (math.inf, "matrix has non-finite entries"),
    "-Infinity": (-math.inf, "matrix has non-finite entries"),
    "integer beyond the float range": (10**400, "magnitude cap"),
}


@pytest.mark.parametrize("case", list(BAD_PARTS))
@pytest.mark.parametrize("where", ["re", "im"])
def test_matrix_from_pairs_refuses_a_part(case, where):
    part, message = BAD_PARTS[case]
    entry = [part, 0.0] if where == "re" else [0.0, part]
    with pytest.raises(ChannelFormatError, match=message):
        matrix_from_pairs([[[1.0, 0.0], entry], [[0.0, 0.0], [1.0, 0.0]]])


# Decimal near-ties of the 12th digit, the edges of the writer's scaled
# range, values that round up to the next power of ten, and non-finite values.
NEAR_TIES = [float("1.000000000005e-3"), 0.1234567890125, -2.5e-7 * (1 + 2e-12)]
RANGE_EDGES = [1e-99, -1e-99, 1e99, -1e99]
CSV_VALUES = [
    -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 99999999999.95, 999999999999.5,
    0.1, 1 / 3, -1e-5, 1e-4, 1e16, 123456789012.5, math.pi, -1e300,
    *[float(np.nextafter(v, t)) for v in NEAR_TIES + RANGE_EDGES for t in (-np.inf, np.inf)],
    *NEAR_TIES, *RANGE_EDGES,
    9.99999999999949e-5, 9.9999999999995e-5, 999999999999.4, -999999999999.4,
    math.nan, math.inf, -math.inf,
]


@pytest.mark.parametrize("cols", [1, 3, 5, 7])
def test_csv_template_matches_per_value_formatting(cols):
    table = np.resize(np.array(CSV_VALUES), (len(CSV_VALUES) * 2 // cols + 1, cols))
    header = [f"c{i}" for i in range(cols)]
    assert "".join(_csv(header, table)) == reference_csv(header, table)
    assert "".join(_csv(header, table[:0])) == reference_csv(header, table[:0])


def test_csv_of_a_multi_block_table_matches_per_value_formatting():
    # Every decade from 1e-110 to 1e110, across the rows of several blocks.
    rng = np.random.default_rng(24)
    shape = (3 * STACK_BLOCK + 7, 5)
    decades = (np.arange(shape[0] * shape[1]) % 220 - 110).reshape(shape)
    table = rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 10.0, shape) * 10.0**decades
    header = [f"c{i}" for i in range(shape[1])]
    assert "".join(_csv(header, table)) == reference_csv(header, table)


def test_csv_formats_exact_zeros_of_both_signs_in_the_kernel():
    # Five values in 1, 3, 4 and 7 columns put 0.0 and -0.0 in every column.
    values = np.array([0.0, -0.0, 0.25, -1e-7, 3e10])
    powers = _g12_tables()[0]
    for cols in (1, 3, 4, 7):
        table = np.resize(values, (5 * cols, cols))
        header = [f"c{i}" for i in range(cols)]
        assert "".join(_csv(header, table)) == reference_csv(header, table)
        assert _g12_significands(table.ravel(), powers)[2].size == 0


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_csv_template_property(table):
    header = [f"c{i}" for i in range(table.shape[1])]
    assert "".join(_csv(header, table)) == reference_csv(header, table)


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_of_a_new_file_under_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        assert main(["family", "--id", "qubit-a", "--out", str(tmp_path / "ch.json")]) == 0
        assert main(["dynamics", "--steps", "8", "--out", str(tmp_path / "traj.csv")]) == 0
        batch = ["bloch", "--batch", "--points", "4", "--out", str(tmp_path / "img.csv")]
        assert main(batch) == 0
    finally:
        os.umask(old)
    for name in ("ch.json", "traj.csv", "traj.summary.json", "img_k3.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


def test_writes_never_set_the_umask(tmp_path, monkeypatch):
    # The umask is process-wide: setting it, even to read it, changes the
    # mode of what another thread creates meanwhile.
    def refuse(*args):
        raise AssertionError("os.umask called during a write")

    old = os.umask(0o027)
    try:
        with monkeypatch.context() as patched:
            patched.setattr(os, "umask", refuse)
            assert main(["family", "--id", "qubit-a", "--out", str(tmp_path / "ch.json")]) == 0
            assert main(["dynamics", "--steps", "8", "--out", str(tmp_path / "traj.csv")]) == 0
    finally:
        os.umask(old)
    names = ["ch.json", "traj.csv", "traj.summary.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names  # no temporary left
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_enabled(request):
    """Run the test with the cyclic garbage collector on, then off."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_a_channel_read_runs_no_collection(tmp_path):
    # A side-32 document decodes to some 34,000 lists; with the collector
    # running, the parse sets off dozens of collections that walk them.
    path = tmp_path / "ndim-theta0-32.json"
    write_json_atomic(path, channel_to_dict(FAMILIES["ndim-theta0"].build(32)))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        assert read_channel(path).shape == (32, 32, 32)
    finally:
        gc.callbacks.remove(count)
        if not was:
            gc.disable()
    assert starts == []


# Each read as (the matrix of side n it finds, or None for no file; a part of
# the message it fails with, or None).
READS = {
    "success": (lambda n: [[[float(i == j), 0.0] for j in range(n)] for i in range(n)], None),
    "string entry": (lambda n: [[["1", 0]]], "pairs of two JSON numbers"),
    "missing file": (None, "cannot read"),
}


@pytest.mark.parametrize("case", list(READS))
def test_read_channel_restores_the_collector_state(tmp_path, gc_enabled, case):
    matrix, message = READS[case]
    path = tmp_path / "ch.json"
    if matrix is not None:
        path.write_text(json.dumps({"n_in": 1, "n_out": 1, "kraus": [matrix(1)]}))
    if message is None:
        read_channel(path)
    else:
        with pytest.raises(ChannelFormatError, match=message):
            read_channel(path)
    assert gc.isenabled() is gc_enabled


@pytest.mark.parametrize("case", list(READS))
def test_family_w_read_restores_the_collector_state(tmp_path, capsys, gc_enabled, case):
    matrix, message = READS[case]
    path = tmp_path / "w.json"
    if matrix is not None:
        path.write_text(json.dumps(matrix(3)))
    code = main(["family", "--id", "qutrit", "--w", str(path), "--out", str(tmp_path / "q.json")])
    assert code == (0 if message is None else 3)
    assert (message or "") in capsys.readouterr().err
    assert gc.isenabled() is gc_enabled
