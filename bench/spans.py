"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` replaces each traced function at the name its caller
looks it up under (a module global or a class attribute) with a wrapper
that records a span: layer name, thread id, parent span, enclosing
benchmark operation, start, end and a work count.  Only the traced
process installs it; untraced runs use the package unwrapped.

A span's parent is the innermost open span of its own thread, or, for a
span opened on a thread with no open span (the ``curve`` slice pool),
the benchmark operation in progress.  Self time is a span's duration
minus the union of its children's intervals, so overlapping children on
pool threads are not subtracted twice.
"""

from __future__ import annotations

import gzip
import importlib
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


def _size_of_first(args, kwargs) -> int:
    return int(np.size(args[0])) if args else 0


def _grid_points(args, kwargs) -> int:
    if not args:
        return 0
    return int(np.size(getattr(args[0], "psi_samples", args[0])))


# (module, attribute path, layer, work count) -- the names callers use
TARGETS = (
    ("levyhedge.lrm", "mmm_quantities", "core.mmm", None),
    ("levyhedge.cli", "mmm_quantities", "core.mmm", None),
    ("levyhedge.lrm", "merton_char_fn", "merton.char_fn", _size_of_first),
    ("levyhedge.lrm", "gaussian_damping", "merton.kernel", _size_of_first),
    ("levyhedge.lrm", "merton_trunc_i1", "merton.trunc", None),
    ("levyhedge.lrm", "merton_trunc_i2", "merton.trunc", None),
    ("levyhedge.lrm", "vg_char_fn", "variance_gamma.char_fn", _size_of_first),
    ("levyhedge.variance_gamma", "VgI2Weights.kernel_factor", "variance_gamma.kernel", None),
    ("levyhedge.lrm", "vg_trunc", "variance_gamma.trunc", None),
    ("levyhedge.lrm", "direct_simpson_sum", "fft_engine.direct", _size_of_first),
    ("levyhedge.lrm", "carr_madan_grid", "fft_engine.grid", _grid_points),
    ("levyhedge.fft_engine", "radix2_fft", "fft_engine.radix2", _size_of_first),
    ("levyhedge.fft_engine", "CarrMadanGrid.at", "fft_engine.interp", None),
    ("levyhedge.lrm", "TransformContext.__init__", "lrm.context", None),
    ("levyhedge.lrm", "_assemble", "lrm.assemble", None),
    ("levyhedge.cli", "load_run_config", "cli.parse", None),
    ("levyhedge.cli", "lrm_strike_sweep", "cli.slice", None),
)
# the CSV span runs from opening the output to closing it; its work count
# is the bytes written
CSV_TARGET = ("levyhedge.cli", "_open_output", "cli.csv")
OP = "op"


class _CountingHandle:
    """Output handle that counts bytes and ends the CSV span on close."""

    def __init__(self, handle, tracer: "Tracer", span: int):
        self._handle, self._tracer, self._span = handle, tracer, span
        self._bytes = 0

    def write(self, text):
        self._bytes += len(text.encode("utf-8"))
        return self._handle.write(text)

    def close(self):
        self._handle.close()
        self._tracer.close_detached(self._span, self._bytes)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.tid = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.points = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.current_op = -1
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int, points: int = 0, push: bool = True) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.current_op
        with self._lock:
            idx = len(self.t0)
            self.name.append(name_id)
            self.tid.append(threading.get_ident())
            self.parent.append(parent)
            self.op.append(self.current_op)
            self.points.append(points)
            self.t1.append(0.0)
            self.t0.append(time.perf_counter())
        if push:
            stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack().pop()

    def close_detached(self, idx: int, points: int) -> None:
        self.t1[idx] = time.perf_counter()
        self.points[idx] = points

    def begin_op(self) -> int:
        self.current_op = self.open(self._id(OP))
        return self.current_op

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.current_op = -1

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name_id: int, count):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_id, count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_csv(self, fn, name_id: int):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name_id, push=False)
            result = fn(*args, **kwargs)
            if isinstance(result, tuple) and len(result) == 2 and hasattr(result[0], "write"):
                return _CountingHandle(result[0], tracer, idx), result[1]
            return result

        traced.__wrapped__ = fn
        return traced

    def _locate(self, module_name: str, path: str):
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.missing.append(f"{module_name}.{path}")
            return None, attr
        return owner, attr

    def install(self) -> None:
        self.missing = []
        for module_name, path, layer, count in TARGETS:
            owner, attr = self._locate(module_name, path)
            if owner is not None:
                original = getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, self._id(layer), count))
        module_name, path, layer = CSV_TARGET
        owner, attr = self._locate(module_name, path)
        if owner is not None:
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap_csv(original, self._id(layer)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Duration minus the union of child intervals, per span."""
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        selft = t1 - t0
        closed = t1 > 0.0
        children = defaultdict(list)
        for idx in np.flatnonzero(closed & (parent >= 0)):
            children[int(parent[idx])].append(int(idx))
        for par, kids in children.items():
            lo, hi = t0[par], t1[par]
            intervals = sorted((max(t0[k], lo), min(t1[k], hi)) for k in kids)
            covered, cur_lo, cur_hi = 0.0, None, None
            for a, b in intervals:
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += max(0.0, cur_hi - cur_lo)
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += max(0.0, cur_hi - cur_lo)
            selft[par] -= covered
        selft[~closed] = 0.0
        return selft

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, work count, busy time and self time."""
        names = np.frombuffer(self.name, dtype=np.int32)
        t0 = np.frombuffer(self.t0, dtype=float)
        t1 = np.frombuffer(self.t1, dtype=float)
        points = np.frombuffer(self.points, dtype=np.int64)
        closed = t1 > 0.0
        dur = np.where(closed, t1 - t0, 0.0)
        selft = self.self_times()
        out = {}
        for name_id, name in enumerate(self.names):
            sel = (names == name_id) & closed
            out[name] = {
                "calls": int(sel.sum()),
                "points": int(points[sel].sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(selft[sel].sum()),
            }
        return out

    def spans_of(self, layer: str):
        """(op, thread, start, end) of every closed span of one layer."""
        if layer not in self._ids:
            return []
        name_id = self._ids[layer]
        return [
            (self.op[i], self.tid[i], self.t0[i], self.t1[i])
            for i in range(len(self.t0))
            if self.name[i] == name_id and self.t1[i] > 0.0
        ]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tname\tthread\tparent\top\tstart_s\tend_s\tpoints\n")
            for i in range(len(self.t0)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.tid[i]}\t{self.parent[i]}\t"
                    f"{self.op[i]}\t{self.t0[i]:.9f}\t{self.t1[i]:.9f}\t{self.points[i]}\n"
                )
