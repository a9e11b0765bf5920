"""Flat-file encodings: complex matrices as nested [re, im] pairs, channels
as JSON documents, and atomic writes for deterministic CLI output.

Channel JSON schema::

    {"n_in": int, "n_out": int, "kraus": [matrix, ...]}

where each matrix is a row-major nested list and each scalar a two-element
array [re, im] of decimal floats.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .channels import KrausSet
from .linalg import as_matrix

# Largest n_in / n_out a channel document, or `qchan family --n`, may ask
# for.  At the cap, analyze's capacity bound holds 128^3 complex entries
# (34 MB); without it a request for a huge n fails only in the allocator.
MAX_DIM = 128


class ChannelFormatError(ValueError):
    """Malformed channel document."""


def matrix_to_pairs(matrix) -> list:
    m = as_matrix(matrix)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_pairs(data) -> np.ndarray:
    try:
        rows = [[complex(float(entry[0]), float(entry[1])) for entry in row] for row in data]
    except (TypeError, ValueError, IndexError) as exc:
        raise ChannelFormatError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise ChannelFormatError("matrix rows are empty or ragged")
    return np.array(rows, dtype=complex)


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
