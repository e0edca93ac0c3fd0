"""Spans around calls into the ``wedcs`` modules, recorded from outside.

:class:`Tracer` replaces every public function of the seven ``wedcs``
modules, and every cross-module reference to one (``wedcs.streaming``'s
``max_weight_b_matching_exact``, ``wedcs.cli``'s ``read_graph`` and so
on), by a wrapper that records a span and returns the original result
unchanged.  A few methods that do a layer's bulk work are wrapped too;
per-edge accessors (``incident``, ``Subgraph.add``) are not, so the
tracer does not swamp the work it measures.  ``uninstall`` restores
every attribute it replaced.

Spans stay in memory.  Worker processes forked while the tracer is
installed (``wedcs stream --jobs``) inherit the wrappers; each appends
its spans to a file in ``worker_dir`` whenever its outermost call
returns, and :meth:`Tracer.end_trial` merges those files.  All spans
share ``time.perf_counter``'s monotonic clock, which is system-wide on
Linux, so worker spans line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from pathlib import Path
from typing import NamedTuple

LAYERS = ("generators", "graph_io", "graph", "edcs", "matching", "streaming", "cli")

#: Methods that get a span, by layer and class.
METHODS = {
    "graph": {"MultiGraph": ("__init__", "restrict", "pair_groups"), "Subgraph": ("__init__",)},
    "matching": {"BMatching": ("verify",)},
}

#: Work size recorded on a span, in edges, where the first argument does
#: not carry it (``restrict`` records the edges it keeps).
_SIZE = {"graph.MultiGraph.restrict": lambda args, result: result[0].m}


class Span(NamedTuple):
    id: str
    parent: str | None
    trial: str
    name: str
    layer: str
    pid: int
    start: float
    end: float
    size: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(name: str, args: tuple, result) -> int | None:
    if name in _SIZE:
        return _SIZE[name](args, result)
    m = getattr(args[0], "m", None) if args else None
    return m if isinstance(m, int) else None


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, worker_dir: Path):
        self.spans: list[Span] = []
        self.worker_dir = worker_dir
        self._stack: list[str] = []
        self._trial = ""
        self._root_start = 0.0
        self._count = 0
        self._pid = os.getpid()
        self._worker_depth: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wedcs = importlib.import_module("wedcs")
        modules = [importlib.import_module(f"wedcs.{name}") for name in LAYERS]
        wrappers: dict[object, object] = {}
        for owner in [wedcs, *modules]:
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("wedcs."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.split(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__qualname__}", layer)
                self._patch(owner, attr, wrappers[obj])
        for module in modules:
            layer = module.__name__.split(".", 1)[1]
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = vars(cls)[method]
                    self._patch(cls, method, self._wrap(fn, f"{layer}.{cls_name}.{method}", layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, layer, args, kwargs)
        return traced

    # -- spans --------------------------------------------------------------

    def begin_trial(self, trial: str) -> None:
        """Install the wrappers and open the trial's root span."""
        self._trial = trial
        self._count += 1
        self._stack.append(f"{self._pid}-{self._count}")
        self._root_start = time.perf_counter()
        self.install()

    def end_trial(self) -> None:
        """Close the root span, uninstall, and merge the workers' spans."""
        self.uninstall()
        end = time.perf_counter()
        root = self._stack.pop()
        self.spans.append(Span(root, None, self._trial, "bench.trial", "bench", self._pid,
                               self._root_start, end, None))
        self._merge_workers()

    def _call(self, fn, name: str, layer: str, args: tuple, kwargs: dict):
        pid = os.getpid()
        if pid != self._pid:
            self._enter_worker(pid)
        self._count += 1
        sid = f"{pid}-{self._count}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        self.spans.append(Span(sid, parent, self._trial, name, layer, pid, start, end,
                               _size(name, args, result)))
        if self._worker_depth is not None and len(self._stack) == self._worker_depth:
            self._flush_worker()
        return result

    def _enter_worker(self, pid: int) -> None:
        # first traced call in a forked worker: keep the inherited stack, so
        # the worker's spans point at the parent span that forked it
        self._pid = pid
        self.spans = []
        self._worker_depth = len(self._stack)

    def _flush_worker(self) -> None:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        _write(self.worker_dir / f"{self._pid}.jsonl", self.spans, "a")
        self.spans = []

    def _merge_workers(self) -> None:
        if not self.worker_dir.is_dir():
            return
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            path.unlink()

    def write(self, path: Path) -> None:
        _write(path, self.spans, "w")


def _write(path: Path, spans: list[Span], mode: str) -> None:
    with open(path, mode, encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


# -- span arithmetic ---------------------------------------------------------

class TrialSpans:
    """The spans of one trial, with the queries the per-layer metrics need."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}

    @property
    def pid(self) -> int | None:
        """The process that ran the trial: its root span's."""
        return next((s.pid for s in self.spans if s.parent is None), None)

    def _parent(self, span: Span) -> Span | None:
        return self.by_id.get(span.parent) if span.parent else None

    def outermost(self, *names: str) -> list[Span]:
        """Spans of ``names`` not nested directly in another of ``names``
        (``read_graph(path)`` calls ``read_graph(fh)``, for instance)."""
        out = []
        for s in self.spans:
            if s.name in names:
                parent = self._parent(s)
                if parent is None or parent.name not in names:
                    out.append(s)
        return out

    def time(self, *names: str, pid: int | None = None) -> float:
        return sum(s.duration for s in self.outermost(*names) if pid is None or s.pid == pid)

    def count(self, *names: str) -> int:
        return len(self.outermost(*names))

    def size(self, *names: str) -> int:
        return sum(s.size or 0 for s in self.outermost(*names))

    def parent_layer(self, span: Span) -> str | None:
        parent = self._parent(span)
        return parent.layer if parent else None

    def self_times(self, pid: int | None = None) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the durations of
        its children in the same process, summed by layer.  Spans of
        parallel workers add up, so the total can exceed wall time."""
        child_time: dict[str, float] = {}
        for s in self.spans:
            parent = self._parent(s)
            if parent is not None and parent.pid == s.pid:
                child_time[parent.id] = child_time.get(parent.id, 0.0) + s.duration
        out = {layer: 0.0 for layer in ("bench", *LAYERS)}
        for s in self.spans:
            if pid is None or s.pid == pid:
                out[s.layer] += s.duration - child_time.get(s.id, 0.0)
        return out
