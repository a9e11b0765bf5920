"""Flat-file encodings: complex matrices as nested [re, im] pairs, channels
as JSON documents, and atomic writes for deterministic CLI output.

Channel JSON schema::

    {"n_in": int, "n_out": int, "kraus": [matrix, ...]}

where each matrix is a row-major nested list and each scalar a two-element
array [re, im] of JSON numbers.  A document holds at most MAX_DIM Kraus
operators, and no finite part of an entry exceeds MAX_ENTRY in magnitude.

Every JSON output is the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` plus a newline.  With ``indent`` set that call runs the
pure-Python encoder, so ``write_json_atomic`` writes a float ndarray value,
such as the ``(k, n_out, n_in, 2)`` parts of a channel's Kraus operators, in
bulk: a %-template of ``%s`` fields laid out as the encoder lays out the
nested list, filled one item of the first axis at a time with the ``repr``
of each distinct float64 bit pattern, formatted once.  ``float.__repr__``
is how ``json`` writes a finite float; a non-finite array value is refused,
since ``json`` would write it as ``NaN`` or ``Infinity``, which are not
JSON.
"""

from __future__ import annotations

import json
import os
from itertools import chain

import numpy as np

from .channels import _as_kraus

# Largest n_in / n_out / Kraus count a channel document, or `qchan family
# --n`, may ask for.  At the cap the Kraus array holds 128^3 complex
# entries (34 MB), and so do analyze's vectors K_a e_i and output matrices
# of the capacity bound, and the bit index _encode_value takes of the
# document's 2 * 128^3 floats, one int64 each.  Without the cap a request for
# a huge n or k fails only in the allocator.
MAX_DIM = 128

# Largest magnitude of a finite real or imaginary part of a matrix entry
# read from a file.  With n, k <= MAX_DIM no sum of entry products, such as
# a Gram, completeness or unitarity entry, can then overflow.
MAX_ENTRY = 1e150


class ChannelFormatError(ValueError):
    """Malformed channel document."""


def _parts(data) -> list | None:
    """The parts re, im of the entries of a list of rows, in order, or None
    unless every entry is exactly two JSON numbers."""
    # Checked by type, not by conversion: float() would take "1" and true.
    entries = list(chain.from_iterable(data))
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}):
        return None
    parts = list(chain.from_iterable(entries))
    return parts if set(map(type, parts)) <= {int, float} else None


def matrix_from_pairs(data) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs of JSON numbers, each
    finite part at most MAX_ENTRY in magnitude."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ChannelFormatError("a matrix must be a list of rows of [re, im] pairs")
    if not data or len(set(map(len, data))) != 1:
        raise ChannelFormatError("matrix rows are empty or ragged")
    parts = _parts(data)
    if parts is None:
        raise ChannelFormatError("matrix entries must be [re, im] pairs of two JSON numbers")
    try:
        parts = np.array(parts, dtype=float)
        # Non-finite parts are left to the callers' finiteness checks.
        too_big = np.any((np.abs(parts) > MAX_ENTRY) & np.isfinite(parts))
    except OverflowError:  # an integer beyond the float range
        too_big = True
    if too_big:
        raise ChannelFormatError(f"matrix entry part above the magnitude cap {MAX_ENTRY:g}")
    return parts.view(complex).reshape(len(data), -1)


def channel_to_dict(kraus) -> dict:
    """The channel document, with the Kraus operators' real and imaginary
    parts as one float array of shape (k, n_out, n_in, 2)."""
    ops = _as_kraus(kraus)
    _, n_out, n_in = ops.shape
    return {
        "n_in": n_in,
        "n_out": n_out,
        "kraus": np.stack([ops.real, ops.imag], axis=-1),
    }


def channel_from_dict(data) -> np.ndarray:
    """The Kraus array (k, n_out, n_in) of a channel document.  The checks run
    in this order: the entry format of every operator, positive dimensions,
    finite entries in every operator, then each operator's shape."""
    if not isinstance(data, dict):
        raise ChannelFormatError("channel document must be a JSON object")
    try:
        n_in, n_out, raw = data["n_in"], data["n_out"], data["kraus"]
    except KeyError as exc:
        raise ChannelFormatError(f"missing channel field {exc}") from exc
    for name, value in (("n_in", n_in), ("n_out", n_out)):
        # bool is an int subclass; JSON true is not a dimension.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ChannelFormatError(f"'{name}' must be an integer, got {value!r}")
        if value > MAX_DIM:
            raise ChannelFormatError(f"'{name}' = {value} is above the dimension cap {MAX_DIM}")
    if isinstance(raw, np.ndarray):  # as channel_to_dict gives it
        raw = raw.tolist()
    if not isinstance(raw, list) or not raw:
        raise ChannelFormatError("'kraus' must be a nonempty list of matrices")
    if len(raw) > MAX_DIM:
        raise ChannelFormatError(
            f"'kraus' holds {len(raw)} operators, above the Kraus count cap {MAX_DIM}"
        )
    ops = [matrix_from_pairs(mat) for mat in raw]
    if n_in < 1 or n_out < 1:
        raise ChannelFormatError("dimensions must be positive")
    if not all(np.isfinite(op).all() for op in ops):
        raise ChannelFormatError("matrix has non-finite entries")
    for op in ops:
        if op.shape != (n_out, n_in):
            raise ChannelFormatError(
                f"Kraus operator shape {op.shape} differs from ({n_out}, {n_in})"
            )
    return np.array(ops)


def _read_json(path, what: str):
    """The JSON value in the file at ``path``.  A file that cannot be read is
    a ChannelFormatError naming ``what``, and so is one that cannot be
    decoded: invalid JSON or UTF-8, an integer beyond Python's digit limit
    (all ValueErrors), or nesting beyond the recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc


def read_channel(path) -> np.ndarray:
    return channel_from_dict(_read_json(path, "channel"))


def write_text_atomic(path, *parts: str) -> None:
    """Write the text parts one by one, then rename, so partially written
    files are never observed and a text given in parts is never joined or
    encoded whole.  The kernel gives the file the mode open(path, "w") gives a
    new file, 0o666 less the umask, which is never set, not even to read it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".qchan-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _array_template(shape: tuple, indent: str) -> str:
    """The %-template json.dumps(indent=2) lays out for a nested list of this
    shape whose opening bracket sits at ``indent``, one %s per float."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = indent + "  "
    item = _array_template(shape[1:], inner)
    return f"[\n{inner}" + f",\n{inner}".join([item] * shape[0]) + f"\n{indent}]"


def _encode_value(value) -> list:
    """The text of one top-level value, as a list of strings."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim):
        return [json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")]
    if not np.isfinite(value).all():
        raise ValueError("a non-finite array value has no JSON encoding")
    if not len(value):
        return ["[]"]
    # A channel document holds few distinct floats, so each distinct float64
    # bit pattern is formatted once; the bits, not the values, keep -0.0
    # apart from 0.0.
    bits = np.asarray(value, dtype=np.float64).view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    # One template per item of the first axis (per Kraus operator) keeps
    # every string small: one template and one fill of the whole array hold
    # several copies of its text at once and raise the process's peak RSS.
    item = _array_template(value.shape[1:], "    ")
    parts = []
    for row in index.reshape(len(value), -1):
        parts.append(",\n    " if parts else "[\n    ")
        parts.append(item % tuple(text[row].tolist()))
    return parts + ["\n  ]"]


def write_json_atomic(path, obj: dict) -> None:
    """Write a dict with string keys as json.dumps(obj, indent=2,
    sort_keys=True) would, and a float ndarray value as its nested list."""
    parts = []
    for key in sorted(obj):
        parts.append((",\n  " if parts else "{\n  ") + json.dumps(key) + ": ")
        parts.extend(_encode_value(obj[key]))
    parts.append("\n}\n" if parts else "{}\n")
    write_text_atomic(path, *parts)
