"""Span recorder for the traced run.

The benchmark wraps public callables of ``repro`` (``HOOKS``) so that each
call records a span: layer, operation, start, end and parent.  Spans stay
in memory; ``self_times`` turns them into self times (a span's duration minus
the part of it its children cover) summed by layer.

A hook whose module or attribute no longer exists is reported as absent
instead of failing the run, so the ledger survives refactors that delete
or merge the wrapped functions.  Stage times are taken only from these
spans, never from the program's own stopwatch fields.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


def _len(value):
    return {"n": len(value)}


def _store_shape(store):
    """Rows, and for a column store its bytes and chunk count."""
    attrs = {"rows": len(store)}
    if hasattr(store, "n_bytes") and hasattr(store, "chunk_rows"):
        attrs["bytes"] = store.n_bytes
        attrs["chunks"] = -(-len(store) // store.chunk_rows)
    return attrs


def _fit_stats(result):
    stats = result.stats
    scan = stats.scan
    return {
        "points": stats.points_inserted,
        "rebuilds": stats.rebuilds,
        "leaf_entries": stats.final_entry_count,
        "splits": scan.splits if scan is not None else 0,
        "absorbed": scan.absorbed if scan is not None else 0,
    }


def _graph_stats(graph):
    return {
        "edges": graph.n_edges,
        "comparisons": graph.stats.comparisons,
        "skipped": graph.stats.skipped,
    }


def _result_stats(result):
    return {
        "rules": len(result.rules),
        "frequent_clusters": sum(len(c) for c in result.frequent_clusters.values()),
    }


def _snapshot_rules(snapshot):
    return {"rules": snapshot.n_rules}


def _answer(answer):
    return {"cached": bool(answer.cached)}


#: ``(layer, operation, module, qualified name, observer)``.  The observer
#: reads counts off the return value; it runs after the span has ended.
HOOKS = [
    ("data.io", "load", "repro.data.io", "load_csv", _store_shape),
    ("data.columnar", "spill", "repro.data.columnar.store", "ColumnStoreWriter.flush", None),
    ("data.columnar", "spill", "repro.data.columnar.store", "ColumnStoreWriter.finish", None),
    ("birch", "fit", "repro.birch.birch", "BirchClusterer.fit_arrays", _fit_stats),
    ("birch", "fit", "repro.birch.birch", "BirchClusterer.fit_chunks", _fit_stats),
    ("core", "kernel", "repro.core.phase2_kernel", "Phase2Kernel.__init__", None),
    ("core", "kernel", "repro.core.phase2_kernel", "Phase2Kernel.build_graph", _graph_stats),
    ("core", "kernel", "repro.core.phase2_kernel", "Phase2Kernel.assoc_sets", None),
    ("core", "kernel", "repro.core.graph", "build_clustering_graph", _graph_stats),
    ("core", "cliques", "repro.core.cliques", "maximal_cliques", _len),
    ("core", "mine", "repro.core.miner", "DARMiner.mine", _result_stats),
    ("core.streaming", "update", "repro.core.streaming", "StreamingDARMiner.update", None),
    ("core.streaming", "rules", "repro.core.streaming", "StreamingDARMiner.rules", _result_stats),
    ("resilience.guard", "guard", "repro.api", "mine", None),
    ("resilience.guard", "guard", "repro.resilience.guard", "guarded_mine", None),
    ("serve.snapshot", "compile", "repro.serve.snapshot", "compile_snapshot", _snapshot_rules),
    ("serve.publisher", "refresh", "repro.serve.publisher", "SnapshotPublisher.refresh", None),
    ("serve.publisher", "refresh", "repro.serve.publisher", "SnapshotPublisher.publish", None),
    ("serve.publisher", "refresh", "repro.serve.publisher", "SnapshotPublisher.swap", None),
    ("serve.publisher", "query", "repro.serve.publisher", "SnapshotPublisher.query", None),
    ("serve.query", "query", "repro.serve.query", "QueryEngine.query", _answer),
]

#: Calls counted without a span: ``(key, module, qualified name)``.
COUNTERS = [
    ("guard_events", "repro.resilience.events", "record_guard_event"),
]


class Tracer:
    """Records spans from any thread.

    A span begun on a thread with no open span nests under the current
    *remote parent*, if any: the client-side HTTP request span, so the work
    the server thread does for a request lands inside that request.
    """

    def __init__(self):
        #: ``[layer, op, start, end, parent, attrs]`` per span.
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.layers = set()
        self.present = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._remote = None
        self._patches = []
        self._paused = False

    # -- recording ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer, op, remote=False):
        stack = self._stack()
        parent = stack[-1] if stack else self._remote
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, op, time.perf_counter(), None, parent, None])
        stack.append(index)
        if remote:
            self._remote = index
        return index

    def end(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()
        if self._remote == index:
            self._remote = None

    @contextlib.contextmanager
    def span(self, layer, op, remote=False):
        index = self.begin(layer, op, remote)
        try:
            yield
        finally:
            self.end(index)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: the benchmark's own correctness checks
        call the program too."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- hooks ----------------------------------------------------------

    def _wrap(self, layer, op, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = tracer.begin(layer, op)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(index)
                if observe is not None and result is not None:
                    try:
                        tracer.spans[index][5] = observe(result)
                    except (AttributeError, TypeError, KeyError):
                        pass

        return traced

    def _counting(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _resolve(self, module_name, qualname):
        """``(owner, name)`` of a hook target, or ``None`` if it is gone."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            found = owner.__dict__.get(name)
            if not (callable(found) or isinstance(found, staticmethod)):
                return None
        elif not callable(getattr(owner, name, None)):
            return None
        return owner, name

    def _patch(self, owner, name, make):
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, staticmethod):
                patched = staticmethod(make(raw.__func__))
            else:
                patched = make(raw)
            setattr(owner, name, patched)
            self._patches.append((owner, name, raw))
            return
        original = getattr(owner, name)
        patched = make(original)
        # Rebind every alias a ``from ... import`` made inside the package.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (
                namespace is not None
                and getattr(module, "__name__", "").startswith("repro")
                and namespace.get(name) is original
            ):
                setattr(module, name, patched)
                self._patches.append((module, name, original))

    def install(self, hooks=HOOKS):
        """Wrap every hook target that still exists; note the rest."""
        self.layers = {layer for layer, *_ in hooks}
        for layer, op, module_name, qualname, observe in hooks:
            target = self._resolve(module_name, qualname)
            if target is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            self.present.add(layer)
            self._patch(*target, lambda fn, l=layer, o=op, ob=observe: self._wrap(l, o, fn, ob))
        for key, module_name, qualname in COUNTERS:
            target = self._resolve(module_name, qualname)
            if target is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            self._patch(*target, lambda fn, k=key: self._counting(k, fn))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def absent_layers(self):
        """Layers none of whose hooks resolved."""
        return sorted(self.layers - self.present)

    # -- analysis -------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus the union of the
        intervals its children cover (clipped to the span)."""
        children = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record[4] is not None:
                children[record[4]].append(index)
        result = []
        for index, (_, _, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(
                (self.spans[c][2], self.spans[c][3]) for c in children[index]
            ):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result.append((end - start) - covered)
        return result


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call."""

    def span(self, layer, op, remote=False):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()
