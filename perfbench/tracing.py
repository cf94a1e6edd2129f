"""Span tracing of the sxor package from outside it.

Nothing under ``src/`` knows about tracing.  A :class:`Tracer` replaces
each public function listed in :data:`LAYERS` with a wrapper, at every
module (and class) attribute of the package that refers to it, so calls
the package makes internally, e.g. ``map_decode`` -> ``exact_div_low``
through ``sxor.codec``'s globals, are timed too.  Spans stay in memory
as ``[name, start, end, parent, op]`` rows and are written out once,
when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _sxor_namespaces():
    # Every sxor module plus every class it defines: the places a
    # function or method is looked up from when the package calls it.
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "sxor" or name.startswith("sxor.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def patch(target, replacement) -> list[tuple[object, str, object]]:
    """Point every sxor attribute holding ``target`` at ``replacement``.

    Returns the undo list for :func:`unpatch`.
    """
    undo = []
    for ns in _sxor_namespaces():
        for attr, value in list(vars(ns).items()):
            if value is target:
                setattr(ns, attr, replacement)
                undo.append((ns, attr, target))
    return undo


def unpatch(undo) -> None:
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


def resolve(path: str):
    """``"sxor.polymat:PolyMatrix.det_adjugate"`` -> the function object."""
    mod_name, _, attr_path = path.partition(":")
    obj = importlib.import_module(mod_name)
    for part in attr_path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _out_len(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["out_len"]


# (span name, function, value counted per call or None).  The span name's
# prefix is the layer: one of the package's modules.
LAYERS = (
    ("cli.encode", "sxor.cli:cmd_encode", None),
    ("cli.decode", "sxor.cli:cmd_decode", None),
    ("cli.read_packet", "sxor.cli:read_packet", None),
    ("cli.write_packet", "sxor.cli:write_packet", None),
    ("codec.encode", "sxor.codec:encode_xor_count", lambda a, k, r: r[1]),
    ("codec.map_decode", "sxor.codec:map_decode", None),
    ("codec.map_kernel", "sxor.codec:map_kernel", None),
    ("codec.zigzag_decode", "sxor.codec:zigzag_decode", None),
    ("codec.zigzag_schedule", "sxor.codec:zigzag_schedule", lambda a, k, r: len(r)),
    ("codec.packet_to_bytes", "sxor.codec:packet_to_bytes", None),
    ("codec.packet_from_bytes", "sxor.codec:packet_from_bytes", None),
    ("gf2poly.exact_div_low", "sxor.gf2poly:exact_div_low", _out_len),
    ("gf2m.is_primitive", "sxor.gf2m:is_primitive", None),
    ("polymat.det_adjugate", "sxor.polymat:PolyMatrix.det_adjugate", None),
    ("codes.build", "sxor.codes:build_sxor", None),
    ("codes.build", "sxor.codes:build_systematic_sxor", None),
    ("codes.build", "sxor.codes:builtin_zd_k3", None),
    ("codes.check_suboptimal", "sxor.codes:GenMatrix.check_suboptimal", None),
    ("analysis.enumerate_classes", "sxor.analysis:enumerate_classes", None),
    ("analysis.matrices_equivalent", "sxor.analysis:matrices_equivalent", None),
    ("analysis.comparison_report", "sxor.analysis:comparison_report", None),
)


class Tracer:
    """In-memory spans for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Calls made inside record nothing: the benchmark's own input generation."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation; its id tags every child."""
        self._op += 1
        sid = self._open("op." + kind)
        try:
            yield
        finally:
            self._close(sid)

    def _wrapper(self, fn, name: str, count):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if count is not None:
                self.counts[name] += count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, path, count in LAYERS:
            try:
                fn = resolve(path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(path)  # renamed or removed since
                continue
            self._undo += patch(fn, self._wrapper(fn, name, count))

    def remove(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        A span's self time is its duration minus the durations of its
        direct children; spans are strictly nested in one thread, so the
        children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[sid]
        return dict(out)

    def child_calls(self, name: str, parent_name: str) -> int:
        return sum(1 for n, _, _, parent, _ in self.spans
                   if n == name and parent is not None and self.spans[parent][0] == parent_name)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
