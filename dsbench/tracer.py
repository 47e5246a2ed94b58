"""Span tracer for the traced benchmark run.

It wraps the public functions of the dswave modules at their module
boundary, together with every name other dswave modules rebound to them
through ``from ... import``, and the ``WavepacketSpec.cap_nodes`` method.
Spans are kept in memory per thread stack and turned into per-layer
numbers (calls, points, self time, useful ratio) once the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import itertools
import threading
import time
from collections import defaultdict

MODULES = ("specfun", "planewave", "transform", "limits", "geometry", "cli")

# work key whose repeats within one unit count as wasted calls
_KEYS = {
    "planewave.radial_profile":
        lambda args: (args[0].n, args[0].alpha, args[0].idx.top, args[0].rho),
    "specfun.hypersph_Y": lambda args: args[0],
}


class Tracer:
    """Collects spans as tuples
    (id, parent, unit, thread, name, start, end, points, key, root)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.unit = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = (self._main_stack if threading.get_ident() == self._main
                  else [])
            self._local.stack = st
        return st

    def _wrap(self, name: str, fn):
        key_of = _KEYS.get(name)
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            root = not stack
            if stack:
                parent = stack[-1]
            else:  # root span of a pool thread: caused by the main thread
                main = self._main_stack
                parent = main[-1] if main else -1
            sid = next(ids)
            stack.append(sid)
            unit = self.unit
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            key = key_of(args) if key_of else None
            spans.append((sid, parent, unit, threading.get_ident(), name,
                          t0, t1, getattr(out, "size", 1), key, root))
            return out

        return traced

    def install(self, package) -> None:
        """Patch every public function and each name bound to it."""
        import importlib
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                obj = getattr(mod, n, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{n}", obj)
        spec = mods["transform"].WavepacketSpec
        self._patch(spec, "cap_nodes",
                    self._wrap("transform.WavepacketSpec.cap_nodes",
                               spec.cap_nodes))
        every = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}")
            for m in ("errors", "lorentz")] + list(mods.values())
        for mod in every:
            for n, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, n, wrapped[id(obj)])

    def _patch(self, owner, name, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Gzipped CSV; times in microseconds from the first span, threads
        numbered in order of appearance."""
        t0 = min((s[5] for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        with gzip.open(path, "wt", compresslevel=1, newline="",
                       encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "unit", "thread", "name",
                          "start_us", "end_us", "points"])
            for s in self.spans:
                tid = threads.setdefault(s[3], len(threads))
                out.writerow((s[0], s[1], s[2], tid, s[4],
                              round((s[5] - t0) * 1e6), round((s[6] - t0) * 1e6),
                              s[7]))

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            children[s[1]].append((s[5], s[6]))
        out = {}
        for s in self.spans:
            t0, t1 = s[5], s[6]
            clipped = sorted((max(lo, t0), min(hi, t1))
                             for lo, hi in children.get(s[0], ()))
            out[s[0]] = (t1 - t0) - _union(clipped)
        return out

    def idle_seconds(self, windows, threads: int) -> float:
        """Pool-thread seconds without a running span, over threaded ops.

        windows are (start, end) intervals of ops that ran a pool of
        ``threads`` threads; each pool thread is charged for the part of
        the pool's active window its own root spans do not cover.
        """
        roots = defaultdict(list)
        for s in self.spans:
            if s[9] and s[3] != self._main:
                roots[s[3]].append((s[5], s[6]))
        idle = 0.0
        for w0, w1 in windows:
            per = [sorted(iv for iv in ivs if w0 <= iv[0] < w1)
                   for ivs in roots.values()]
            per = [iv for iv in per if iv]
            if not per:
                continue
            a = min(iv[0][0] for iv in per)
            b = max(hi for iv in per for _, hi in iv)
            idle += threads * (b - a) - sum(_union(iv) for iv in per)
        return idle


def _union(sorted_ivs) -> float:
    """Total length covered by intervals sorted by start."""
    total = 0.0
    lo = hi = None
    for a, b in sorted_ivs:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total + (hi - lo if hi is not None else 0.0)
