"""Flat-file encodings: complex matrices as nested [re, im] pairs, channels
as JSON documents, and atomic writes for deterministic CLI output.

Channel JSON schema::

    {"n_in": int, "n_out": int, "kraus": [matrix, ...]}

where each matrix is a row-major nested list and each scalar a two-element
array [re, im] of JSON numbers.  A document holds at most MAX_DIM Kraus
operators, and every part of an entry is finite and at most MAX_ENTRY in
magnitude.

Every JSON output is the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` plus a newline.  With ``indent`` set that call runs the
pure-Python encoder, so ``write_json_atomic`` writes a float ndarray value,
such as the ``(k, n_out, n_in, 2)`` parts of a channel's Kraus operators, in
bulk: the separators of the nested list, laid out as the encoder lays them
out, are joined one item of the first axis at a time with the ``repr`` of
each distinct float64 bit pattern, formatted once.  ``float.__repr__`` is
how ``json`` writes a finite float; a non-finite array value is refused,
since ``json`` would write it as ``NaN`` or ``Infinity``, which are not
JSON.  A top-level scalar, on which ``indent`` and ``sort_keys`` change no
byte, goes to the C encoder.
"""

from __future__ import annotations

import gc
import json
import os
from collections.abc import Iterable
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
    # One pass over the entries: len() refuses a number, true or null (a
    # TypeError), and a 2-character string or 2-key object that passes it
    # yields characters or keys, which the parts' type test refuses.
    entries = list(chain.from_iterable(data))
    try:
        if not set(map(len, entries)) <= {2}:
            return None
    except TypeError:
        return None
    parts = list(chain.from_iterable(entries))
    return parts if set(map(type, parts)) <= {int, float} else None


def matrix_from_pairs(data) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs of JSON numbers, each
    part finite and at most MAX_ENTRY in magnitude."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ChannelFormatError("a matrix must be a list of rows of [re, im] pairs")
    if not data or len(set(map(len, data))) != 1:
        raise ChannelFormatError("matrix rows are empty or ragged")
    parts = _parts(data)
    if parts is None:
        raise ChannelFormatError("matrix entries must be [re, im] pairs of two JSON numbers")
    try:
        parts = np.array(parts, dtype=float)
        finite = np.isfinite(parts)
        too_big = np.any((np.abs(parts) > MAX_ENTRY) & finite)
    except OverflowError:  # an integer beyond the float range
        too_big = True
    if too_big:
        raise ChannelFormatError(f"matrix entry part above the magnitude cap {MAX_ENTRY:g}")
    if not finite.all():
        raise ChannelFormatError("matrix has non-finite entries")
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
    in this order: the type, size cap and sign of each dimension, the Kraus
    count, the format and finiteness of each operator in turn, then each
    operator's shape."""
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
        if value < 1:
            raise ChannelFormatError("dimensions must be positive")
    if not isinstance(raw, list) or not raw:
        raise ChannelFormatError("'kraus' must be a nonempty list of matrices")
    if len(raw) > MAX_DIM:
        raise ChannelFormatError(
            f"'kraus' holds {len(raw)} operators, above the Kraus count cap {MAX_DIM}"
        )
    ops = [matrix_from_pairs(mat) for mat in raw]
    for op in ops:
        if op.shape != (n_out, n_in):
            raise ChannelFormatError(
                f"Kraus operator shape {op.shape} differs from ({n_out}, {n_in})"
            )
    return np.array(ops)


def _read_json(path, what: str, convert):
    """``convert`` of the JSON value in the file at ``path``.  A file that
    cannot be read is a ChannelFormatError naming ``what``, and so is one that
    cannot be decoded: invalid JSON or UTF-8, an integer beyond Python's digit
    limit (all ValueErrors), or nesting beyond the recursion limit.

    The cyclic garbage collector is paused for the parse and the conversion,
    and restored to the caller's state after them.  A channel document of
    side 32 decodes to some 34,000 lists, and each young-generation sweep the
    parse would set off walks them all.  The pause is safe because neither
    step builds a reference cycle: reference counting frees the lists, inside
    the pause.  It is process-wide and lasts one parse."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ChannelFormatError(f"cannot read {what} file {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ChannelFormatError(f"invalid JSON in {path}: {exc}") from exc
        value = convert(data)
        del data  # frees the lists before the collector resumes
        return value
    finally:
        if enabled:
            gc.enable()


def read_channel(path) -> np.ndarray:
    return _read_json(path, "channel", channel_from_dict)


def write_text_atomic(path, head: str, parts: Iterable[str] = ()) -> None:
    """Write ``head``, then each string of ``parts`` as it is drawn, then
    rename, so partially written files are never observed and a text given
    in parts is never joined or encoded whole.  The kernel gives the file
    the mode open(path, "w") gives a new file, 0o666 less the umask, which
    is never set, not even to read it.  A failure, also one raised while
    ``parts`` is drawn, leaves no temporary file behind; an OSError names
    ``path``, not the temporary file's random name."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".qchan-{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(head)
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


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
    if isinstance(value, (dict, list, tuple)):
        return [json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")]
    if not (isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim):
        # A scalar: indent and sort_keys change no byte, so the C encoder writes it.
        return [json.dumps(value)]
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
    # One string per item of the first axis (per Kraus operator) keeps every
    # string small: one fill of the whole array holds several copies of its
    # text at once and raises the process's peak RSS.  The item's template is
    # split at its %s fields once; the odd slots of the piece list take the
    # floats' text and one join fills the item.
    separators = _array_template(value.shape[1:], "    ").split("%s")
    pieces = [""] * (2 * len(separators) - 1)
    pieces[::2] = separators
    parts = []
    for row in index.reshape(len(value), -1):
        parts.append(",\n    " if parts else "[\n    ")
        pieces[1::2] = text[row].tolist()
        parts.append("".join(pieces))
    return parts + ["\n  ]"]


def write_json_atomic(path, obj: dict) -> None:
    """Write a dict with string keys as json.dumps(obj, indent=2,
    sort_keys=True) would, and a float ndarray value as its nested list."""
    parts = []
    for key in sorted(obj):
        parts.append((",\n  " if parts else "{\n  ") + json.dumps(key) + ": ")
        parts.extend(_encode_value(obj[key]))
    parts.append("\n}\n" if parts else "{}\n")
    write_text_atomic(path, parts[0], parts[1:])
