"""Outside-in tracer for the ``qchan`` package.

The tracer changes no file of the package.  ``install`` replaces each public
function of the seven layer modules by a wrapper that records a span, and
rebinds that wrapper under every name that holds the function in any
``qchan`` module (``from .channels import choi_state`` gives ``dynamics``,
``measures`` and ``cli`` bindings of their own).  It wraps ``__post_init__``
on the package's dataclasses, so that ``DensityMatrix`` and ``KrausSet``
validation shows as spans, and it wraps numpy's eigensolvers to count
eigendecompositions.  ``uninstall`` puts every original back.

A span is (name, start, end, parent), kept in flat arrays in memory.  The
self time of a span is its duration minus the time covered by its child
spans, so wrapper cost lands in the enclosing span and self times are
upper bounds.  A few spans also add to exact counters: bytes of channel
JSON read and of output written, bytes of the superoperators built
(computed from array sizes, not measured), the sum of side^3 over
eigendecompositions (a computed operation count), and Choi builds against
the distinct channels they were built for.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import time
import weakref

import numpy as np

PACKAGE = "qchan"
LAYERS = ("linalg", "channels", "families", "measures", "dynamics", "serialize", "cli")
EIGENSOLVER = "linalg.eigensolver"
EIGEN_FUNCTIONS = ("eigvalsh", "eigvals", "eigh")


class Tracer:
    def __init__(self):
        self.names: list = []  # span name per name id
        self.layer_of: list = []  # layer per name id; EIGENSOLVER is a layer of its own
        self.start = array.array("d")
        self.end = array.array("d")
        self.name = array.array("i")
        self.parent = array.array("i")
        self._stack: list = []
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counters; installed wrappers stay valid."""
        for a in (self.start, self.end, self.name, self.parent):
            del a[:]
        self._stack.clear()
        self._seen = weakref.WeakSet()
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(
            ("eigen_n3", "superop_bytes", "bytes_read", "bytes_written", "choi_builds",
             "channels_built"), 0)

    # --- installing and removing the wrappers

    def install(self) -> None:
        hooks = {
            "serialize.read_channel": self._count_read,
            "serialize.write_text_atomic": self._count_write,
            "channels.kraus_to_superop": self._count_superop,
            "channels.choi_matrix": self._count_choi,
        }
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, layer, hooks.get(name)))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._set(obj, "__post_init__", self._wrap(obj.__post_init__, name, layer))
        for module in [importlib.import_module(PACKAGE), *modules]:
            for attr, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._set(module, attr, wrapper)
        for fname in EIGEN_FUNCTIONS:
            fn = getattr(np.linalg, fname)
            self._set(np.linalg, fname, self._wrap(fn, EIGENSOLVER, EIGENSOLVER, self._count_eigen))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        return self.names.index(name)

    def _wrap(self, fn, name: str, layer: str, hook=None):
        nid = self._name_id(name, layer)
        start, end, names, parents, stack = self.start, self.end, self.name, self.parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                self._left_with_error(idx)
                raise
            end[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # --- counters

    def _left_with_error(self, idx: int) -> None:
        """Count an exception once per layer it leaves, not once per nested span."""
        layer = self.layer_of[self.name[idx]]
        parent = self.parent[idx]
        if layer in self.errors and (parent < 0 or self.layer_of[self.name[parent]] != layer):
            self.errors[layer] += 1

    def _count_eigen(self, args, result) -> None:
        shape = np.shape(args[0])
        self.counters["eigen_n3"] += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3

    def _count_read(self, args, result) -> None:
        self.counters["bytes_read"] += os.path.getsize(args[0])

    def _count_write(self, args, result) -> None:
        self.counters["bytes_written"] += len(args[1].encode("utf-8"))

    def _count_superop(self, args, result) -> None:
        self.counters["superop_bytes"] += result.matrix.nbytes

    def _count_choi(self, args, result) -> None:
        self.counters["choi_builds"] += 1
        if args[0] not in self._seen:
            self._seen.add(args[0])
            self.counters["channels_built"] += 1

    # --- summaries

    def per_name(self) -> dict:
        """name -> (calls, self seconds, total seconds) over the recorded spans."""
        spans = self.spans()
        dur, nid, parent = spans["end"] - spans["start"], spans["name"], spans["parent"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - covered, minlength=k)
        total_s = np.bincount(nid, weights=dur, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, n in enumerate(self.names)}

    def spans(self) -> dict:
        """The recorded spans as arrays, for writing out."""
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }


# Metrics of one traced pass: (name, unit, exact).  Exact ones are counts
# that must repeat from pass to pass and run to run at one seed.
PER_LAYER = [
    ("linalg.DensityMatrix.calls", "count", True),
    ("linalg.DensityMatrix.self_s", "s", False),
    ("linalg.DensityMatrix.per_item", "s", False),
    ("linalg.as_matrix.calls", "count", True),
    ("linalg.calls", "count", True),
    ("linalg.self_s", "s", False),
    ("linalg.eigensolver.calls", "count", True),
    ("linalg.eigensolver.self_s", "s", False),
    ("linalg.eigensolver.n3_sum", "count", True),
    ("channels.calls", "count", True),
    ("channels.self_s", "s", False),
    ("channels.choi_state.calls", "count", True),
    ("channels.choi_reuse", "1", True),
    ("channels.kraus_to_superop.self_s", "s", False),
    ("channels.superop_bytes", "B", True),
    ("channels.apply.calls", "count", True),
    ("channels.apply.self_s", "s", False),
    ("families.calls", "count", True),
    ("families.self_s", "s", False),
    ("measures.calls", "count", True),
    ("measures.self_s", "s", False),
    ("measures.map_entropy.total_s", "s", False),
    ("dynamics.calls", "count", True),
    ("dynamics.self_s", "s", False),
    ("dynamics.bloch_vector.self_s", "s", False),
    ("serialize.calls", "count", True),
    ("serialize.self_s", "s", False),
    ("serialize.bytes_read", "B", True),
    ("serialize.bytes_written", "B", True),
    ("cli.calls", "count", True),
    ("cli.self_s", "s", False),
    *((f"{layer}.errors", "count", True) for layer in LAYERS),
]


def pass_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric of the spans recorded since the last reset."""
    stats = tracer.per_name()
    zero = (0, 0.0, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, layer in zip(tracer.names, tracer.layer_of):
        if layer in layer_calls:
            layer_calls[layer] += stats[name][0]
            layer_self[layer] += stats[name][1]
    c = tracer.counters
    dm_calls, dm_self, _ = stats.get("linalg.DensityMatrix", zero)
    values = {
        "linalg.DensityMatrix.calls": dm_calls,
        "linalg.DensityMatrix.self_s": dm_self,
        "linalg.DensityMatrix.per_item": dm_self / dm_calls if dm_calls else 0.0,
        "linalg.as_matrix.calls": stats.get("linalg.as_matrix", zero)[0],
        "linalg.eigensolver.calls": stats.get(EIGENSOLVER, zero)[0],
        "linalg.eigensolver.self_s": stats.get(EIGENSOLVER, zero)[1],
        "linalg.eigensolver.n3_sum": c["eigen_n3"],
        "channels.choi_state.calls": stats.get("channels.choi_state", zero)[0],
        "channels.choi_reuse": c["channels_built"] / c["choi_builds"] if c["choi_builds"] else 0.0,
        "channels.kraus_to_superop.self_s": stats.get("channels.kraus_to_superop", zero)[1],
        "channels.superop_bytes": c["superop_bytes"],
        "channels.apply.calls": stats.get("channels.apply", zero)[0],
        "channels.apply.self_s": stats.get("channels.apply", zero)[1],
        "measures.map_entropy.total_s": stats.get("measures.map_entropy", zero)[2],
        "dynamics.bloch_vector.self_s": stats.get("dynamics.bloch_vector", zero)[1],
        "serialize.bytes_read": c["bytes_read"],
        "serialize.bytes_written": c["bytes_written"],
    }
    for layer in LAYERS:
        values[f"{layer}.calls"] = layer_calls[layer]
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.errors"] = tracer.errors[layer]
    return {name: values[name] for name, _, _ in PER_LAYER}
