"""Span tracer for the traced benchmark pass.

The tracer times calls into each ccrsweep module's public functions from
outside the package.  ``from .linalg import partial_trace`` binds the
function into every importing module, so a wrapper set only on
``ccrsweep.linalg`` would miss most calls; :meth:`Tracer.install` therefore
rebinds the wrapper under every name in every ``ccrsweep.*`` namespace that
refers to the original function.  It also wraps
``DensityOperator.__post_init__`` (every validated density matrix) and
``numpy.linalg.eigvalsh`` (the eigensolver kernel all spectra go through).

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out after the pass.  A span's self time is its duration minus the
durations of its child spans.  Work the tracer itself does to count distinct
inputs and rendered bytes is recorded as ``trace.hook`` child spans, so it
is not charged to any program layer.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
from array import array
from collections.abc import Collection
from time import perf_counter

import numpy as np

KERNEL = "numpy.linalg.eigvalsh"
HOOK = "trace.hook"
LAYERS = ("cli", "reports", "channels", "measures", "linalg")

#: Named groups of spans reported as one per-layer metric family.
GROUPS = {
    "linalg.partial_trace": ("linalg.partial_trace",),
    "linalg.density_operator": ("linalg.DensityOperator.__post_init__",),
    "linalg.eigvalsh": (KERNEL,),
    "measures.correlated_coherence_hs": ("measures.correlated_coherence_hs",),
    "measures.re_correlated_coherence": ("measures.re_correlated_coherence",),
    "measures.is_ppt": ("measures.is_ppt",),
    "channels.dilate": ("channels.dilate",),
    "channels.kraus": ("channels.kraus_set", "channels.apply_kraus", "channels.validate_kraus"),
    "reports.ccr_report": ("reports.ccr_report",),
    "cli.render": ("cli.render_csv", "cli.render_json"),
    "cli.verify": ("cli.verify_command",),
}


def _digest(mat) -> bytes:
    data = np.ascontiguousarray(mat).tobytes()
    return hashlib.blake2b(data, digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.partial_trace_keys: set = set()
        self.partial_trace_bytes = 0
        self.dilate_keys: set = set()
        self.render_bytes = 0
        #: (before, after) hooks by span name, for the counts the spans lack.
        self._hooks = {
            "linalg.partial_trace": (self._partial_trace_in, None),
            "channels.dilate": (self._dilate_in, None),
            "cli.render_csv": (None, self._render_out),
            "cli.render_json": (None, self._render_out),
        }

    # -- hooks: counted outside the callee's span ---------------------------

    def _partial_trace_in(self, rho, keep):
        labels = frozenset(keep) if isinstance(keep, Collection) else object()
        self.partial_trace_keys.add((_digest(rho.mat), rho.layout, labels))
        self.partial_trace_bytes += rho.mat.nbytes

    def _dilate_in(self, spec, system, sys_layout):
        psi = np.asarray(system, dtype=complex)
        self.dilate_keys.add((spec, _digest(psi), sys_layout))

    def _render_out(self, text):
        self.render_bytes += len(text.encode("utf-8"))

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        pre, post = self._hooks.get(name, (None, None))
        nid = self._name_id(name)
        hook_id = self._name_id(HOOK)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack
        )

        def record(span_name: int, t0: float, t1: float) -> None:
            names.append(span_name)
            parents.append(stack[-1])
            starts.append(t0)
            ends.append(t1)

        def traced(*args, **kwargs):
            if pre is not None:
                h0 = perf_counter()
                pre(*args, **kwargs)
                record(hook_id, h0, perf_counter())
            i = len(names)
            record(nid, 0.0, 0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if post is not None:
                h0 = perf_counter()
                post(result)
                record(hook_id, h0, perf_counter())
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every public function of every loaded ``package.*`` module."""
        prefix = package.__name__ + "."
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
        density = package.linalg.DensityOperator
        self._rebind(density, "__post_init__",
                     self._wrap(density.__post_init__, "linalg.DensityOperator.__post_init__"))
        self._rebind(np.linalg, "eigvalsh", self._wrap(np.linalg.eigvalsh, KERNEL))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def write(self, path: str) -> None:
        """Spans as tab-separated ``span parent name start_ns end_ns`` rows
        after a JSON header line with the name table; times are relative to
        the first span's start."""
        name, parent, start, end = self._columns()
        origin = float(start.min()) if start.size else 0.0
        start_ns = np.rint((start - origin) * 1e9).astype(np.int64)
        end_ns = np.rint((end - origin) * 1e9).astype(np.int64)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["span", "parent", "name", "start_ns", "end_ns"]}))
            fh.write("\n")
            for i in range(name.size):
                fh.write(f"{i}\t{parent[i]}\t{name[i]}\t{start_ns[i]}\t{end_ns[i]}\n")

    def summary(self, wall: float, points: int) -> dict[str, float]:
        """Per-layer counts and self times of the traced pass."""
        name, parent, start, end = self._columns()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))

        def total(values, members):
            return sum(values[self._ids[m]].item() for m in members if m in self._ids)

        def layer_names(layer: str) -> list[str]:
            return [n for n in self.names if n.startswith(layer + ".")]

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = total(self_time, layer_names(layer))
        out["measures.calls"] = total(calls, layer_names("measures"))
        for group, members in GROUPS.items():
            out[f"{group}.calls"] = total(calls, members)
            out[f"{group}.self_s"] = total(self_time, members)
        pt_calls = out["linalg.partial_trace.calls"]
        out["linalg.partial_trace.per_point"] = pt_calls / points
        out["linalg.partial_trace.unique_ratio"] = (
            len(self.partial_trace_keys) / pt_calls if pt_calls else 0.0
        )
        out["linalg.partial_trace.bytes_in"] = self.partial_trace_bytes
        out["linalg.eigvalsh.per_point"] = out["linalg.eigvalsh.calls"] / points
        dilations = out["channels.dilate.calls"]
        out["channels.dilate.unique_ratio"] = (
            len(self.dilate_keys) / dilations if dilations else 0.0
        )
        out["cli.render.bytes"] = self.render_bytes
        program = [n for n in self.names if n != HOOK]
        out["trace.coverage"] = total(self_time, program) / wall
        out["trace.spans"] = name.size
        return out
