"""Flat-file encodings: complex matrices as nested [re, im] pairs, channels
as JSON documents, and atomic writes for deterministic CLI output.

Channel JSON schema::

    {"n_in": int, "n_out": int, "kraus": [matrix, ...]}

where each matrix is a row-major nested list and each scalar a two-element
array [re, im] of JSON numbers.  A document holds at most MAX_DIM Kraus
operators, and no finite part of an entry exceeds MAX_ENTRY in magnitude.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain

import numpy as np

from .channels import KrausSet
from .linalg import as_matrix

# Largest n_in / n_out / Kraus count a channel document, or `qchan family
# --n`, may ask for.  At the cap, analyze's capacity bound holds 128^3
# complex entries (34 MB), and so does its Gram matrix of the Kraus
# operators; without it a request for a huge n or k fails only in the
# allocator.
MAX_DIM = 128

# Largest magnitude of a finite real or imaginary part of a matrix entry
# read from a file.  With n, k <= MAX_DIM no sum of entry products, such as
# a Gram, completeness or unitarity entry, can then overflow.
MAX_ENTRY = 1e150


class ChannelFormatError(ValueError):
    """Malformed channel document."""


def matrix_to_pairs(matrix) -> list:
    m = as_matrix(matrix)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


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
        # Non-finite parts are left to the finiteness check of KrausSet.
        too_big = np.any((np.abs(parts) > MAX_ENTRY) & np.isfinite(parts))
    except OverflowError:  # an integer beyond the float range
        too_big = True
    if too_big:
        raise ChannelFormatError(f"matrix entry part above the magnitude cap {MAX_ENTRY:g}")
    return parts.view(complex).reshape(len(data), -1)


def channel_to_dict(channel: KrausSet) -> dict:
    return {
        "n_in": channel.n_in,
        "n_out": channel.n_out,
        "kraus": [matrix_to_pairs(op) for op in channel.operators],
    }


def channel_from_dict(data) -> KrausSet:
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
    if not isinstance(raw, list) or not raw:
        raise ChannelFormatError("'kraus' must be a nonempty list of matrices")
    if len(raw) > MAX_DIM:
        raise ChannelFormatError(
            f"'kraus' holds {len(raw)} operators, above the Kraus count cap {MAX_DIM}"
        )
    ops = tuple(matrix_from_pairs(mat) for mat in raw)
    try:
        return KrausSet(n_in, n_out, ops)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


def read_channel(path) -> KrausSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read channel file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return channel_from_dict(data)


def write_text_atomic(path, text: str) -> None:
    """Write-then-rename so partially written files are never observed."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qchan-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
