"""Outside-in trace recorder for the traced benchmark run.

The benchmark never edits the program.  Instead, for the traced run only,
:func:`install` replaces the public callables of each layer with timing
wrappers *at the name their callers look up* and :meth:`Patches.restore`
puts the originals back.  That matters because several callers bind a name
at import time (``repro.search.strategies`` imports ``pareto_front``) or
import it inside a function (the CLI imports ``prepare_resume`` from
``repro.sweep.engine`` on every call), so patching the defining module alone
would miss them.

Spans live in memory as a tree (each node knows its parent).  A node's
self time is its duration minus the time of the spans that ran while it
was the innermost open span.  Calls made thousands of times per user call
(``ResultStore.append``, ``BatchEstimator.compile_for``,
``GridSpace.scenario``, ``BatchEstimator.evaluate_group``) do not get a
node each: they share one aggregate node per (parent, name) that keeps a
call count and summed durations, because one node per append roughly
doubles the grid workload's call time.

Only the standard library is used (``time.perf_counter_ns``).
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional


class Node:
    """One span, or the aggregate of many same-named calls under a parent."""

    __slots__ = ("id", "name", "parent", "count", "total_ns", "child_ns", "agg")

    def __init__(self, node_id: int, name: str, parent: Optional["Node"]):
        self.id = node_id
        self.name = name
        self.parent = parent
        self.count = 0
        self.total_ns = 0
        self.child_ns = 0
        self.agg: Optional[Dict[str, "Node"]] = None

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Span stack plus per-call counters.

    ``begin_call``/``end_call`` bracket one user-level call: the root node
    is the benchmark's own span around the call, and every layer span opened
    during the call descends from it.
    """

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self.stack: List[Node] = []
        self.counters: Dict[str, float] = {}
        self.root: Optional[Node] = None
        self.calls: List[Dict[str, Any]] = []
        #: BatchEstimators constructed since the last :func:`compile_stats`.
        self.estimators: List[Any] = []

    # -- spans ---------------------------------------------------------------------
    def _new(self, name: str, parent: Optional[Node]) -> Node:
        node = Node(len(self.nodes), name, parent)
        self.nodes.append(node)
        return node

    def open(self, name: str, aggregate: bool = False) -> Node:
        """A node for a call about to start under the innermost open span."""
        parent = self.stack[-1] if self.stack else None
        if not aggregate or parent is None:
            return self._new(name, parent)
        if parent.agg is None:
            parent.agg = {}
        node = parent.agg.get(name)
        if node is None:
            node = parent.agg[name] = self._new(name, parent)
        return node

    def push(self, node: Node) -> None:
        self.stack.append(node)

    def pop(self, node: Node, elapsed_ns: int) -> None:
        """Close one activation of ``node`` that lasted ``elapsed_ns``.

        The time is charged as child time to whichever span is innermost
        once ``node`` is popped — the span that was actually waiting on it —
        so self times add up to the root's wall time exactly.
        """
        popped = self.stack.pop()
        if popped is not node:
            raise RuntimeError(f"span stack out of order: {popped.name} vs {node.name}")
        node.count += 1
        node.total_ns += elapsed_ns
        if self.stack:
            self.stack[-1].child_ns += elapsed_ns

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def innermost(self) -> Optional[str]:
        return self.stack[-1].name if self.stack else None

    # -- user-level calls ----------------------------------------------------------
    def begin_call(self) -> None:
        if self.stack:
            raise RuntimeError("begin_call with spans still open")
        self.counters = {}
        self.root = self.open("call")
        self.push(self.root)
        self._root_start = perf_counter_ns()

    def end_call(self) -> Dict[str, Any]:
        """Close the root span; returns the call's self time per span name."""
        root = self.root
        self.pop(root, perf_counter_ns() - self._root_start)
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        for node in self.nodes[root.id :]:
            self_ns[node.name] = self_ns.get(node.name, 0) + node.self_ns
            calls[node.name] = calls.get(node.name, 0) + node.count
        summary = {
            "wall_ns": root.total_ns,
            "self_ns": self_ns,
            "calls": calls,
            "counters": dict(self.counters),
        }
        self.calls.append(summary)
        self.root = None
        return summary

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark's own code."""
        return _SpanContext(self, name)

    def write(self, path: Path) -> None:
        """Write every span and per-call summary as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {
                "id": node.id,
                "parent": node.parent.id if node.parent is not None else None,
                "name": node.name,
                "count": node.count,
                "total_ns": node.total_ns,
                "self_ns": node.self_ns,
            }
            for node in self.nodes
        ]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"calls": self.calls, "spans": spans}))
        os.replace(tmp, path)


class _SpanContext:
    __slots__ = ("tracer", "node", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.node = tracer.open(name)

    def __enter__(self) -> Node:
        self.tracer.push(self.node)
        self.start = perf_counter_ns()
        return self.node

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.pop(self.node, perf_counter_ns() - self.start)


class NullTracer:
    """Stand-in used by the untraced run: spans cost one method call."""

    def span(self, name: str) -> "NullTracer":
        return self

    def count(self, key: str, amount: float = 1) -> None:
        pass

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        pass


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
After = Optional[Callable[[Tracer, tuple, dict, Any], None]]


def wrap_call(
    tracer: Tracer,
    name: str,
    fn: Callable,
    *,
    aggregate: bool = False,
    before: Optional[Callable[[Tracer], None]] = None,
    after: After = None,
) -> Callable:
    """Time every call of ``fn`` as span ``name``; ``before``/``after`` update
    counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer)
        node = tracer.open(name, aggregate)
        tracer.push(node)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(node, perf_counter_ns() - start)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def wrap_generator(
    tracer: Tracer, name: str, fn: Callable, *, before: Optional[Callable[[Tracer], None]] = None
) -> Callable:
    """Time a generator function: one span, active during every ``next``.

    The generator body runs interleaved with its consumer (the CLI appends
    each record to the store between two ``next`` calls), so only the time
    spent inside the generator is charged to it.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer)
        node = tracer.open(name)
        generator = fn(*args, **kwargs)
        try:
            while True:
                tracer.push(node)
                start = perf_counter_ns()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    tracer.pop(node, perf_counter_ns() - start)
                yield item
        finally:
            generator.close()

    return wrapper


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def replace(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# The layer map
# ---------------------------------------------------------------------------
def install(tracer: Tracer) -> Patches:
    """Wrap the public callables of every in-process layer.

    Span names are ``<layer>`` or ``<layer>.<part>``, where the layer is the
    ``repro`` module the callable belongs to.
    """
    import repro.cli
    import repro.core.explorer
    import repro.fastpath
    import repro.fastpath.batch
    import repro.search
    import repro.search.runner
    import repro.search.strategies
    import repro.sweep.engine
    import repro.sweep.store
    from repro.fastpath import BatchEstimator
    from repro.search import GridSpace
    from repro.sweep.engine import SweepEngine
    from repro.sweep.spec import SweepSpec
    from repro.sweep.store import ResultStore

    patches = Patches()
    stores: Dict[int, List[Any]] = {}

    def call(name: str, aggregate: bool = False, after: After = None):
        return lambda fn: wrap_call(tracer, name, fn, aggregate=aggregate, after=after)

    def counted(key: str, measure: Callable[[tuple, dict, Any], float]) -> After:
        return lambda t, args, kwargs, result: t.count(key, measure(args, kwargs, result))

    # cli: parsing, the top-N heap, Pareto row building and printing.
    patches.replace(repro.cli, "main", call("cli"))

    # sweep.spec: grid expansion.
    patches.replace(
        SweepSpec, "expand",
        call("spec.expand", after=counted("spec.scenarios", lambda a, k, r: len(r))),
    )

    # sweep.engine: per-call orchestration (run wraps iter_records).
    def engine_entry(t: Tracer) -> None:
        if t.innermost() != "engine":
            t.count("engine.runs")

    patches.replace(
        SweepEngine, "run", lambda fn: wrap_call(tracer, "engine", fn, before=engine_entry)
    )
    patches.replace(
        SweepEngine, "iter_records",
        lambda fn: wrap_generator(tracer, "engine", fn, before=engine_entry),
    )

    # sweep.store, write side: one aggregate node per parent for append.
    def store_opened(t, args, kwargs, result):
        store = args[0]
        stores[id(store)] = [store, os.fstat(store._fd).st_size]

    def store_close(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            entry = stores.pop(id(self), None)
            if entry is not None and self._fd is not None:
                tracer.count("store.bytes_written", os.fstat(self._fd).st_size - entry[1])
            return fn(self, *args, **kwargs)

        return wrapper

    patches.replace(ResultStore, "__init__", call("store.open", after=store_opened))
    patches.replace(ResultStore, "close", store_close)
    patches.replace(
        ResultStore, "append",
        call("store.append", aggregate=True, after=counted("store.rows_written", lambda a, k, r: 1)),
    )

    # sweep.store, read side, at every name a caller looks up.
    patches.replace(
        repro.sweep.engine, "prepare_resume",
        call("store.read", after=counted("store.rows_read", lambda a, k, r: len(r[2]))),
    )
    patches.replace(repro.sweep.engine, "repair_torn_tail", call("store.read"))
    patches.replace(repro.search.runner, "repair_torn_tail", call("store.read"))
    patches.replace(
        repro.search.runner, "records_by_scenario",
        call("store.read", after=counted("store.rows_read", lambda a, k, r: len(r))),
    )
    patches.replace(
        repro.sweep.store, "load_records",
        call("store.read", after=counted("store.rows_read", lambda a, k, r: len(r))),
    )

    # fastpath.batch: template grouping and group evaluation.
    group_after = counted("batch.groups", lambda a, k, r: len(r))
    patches.replace(repro.fastpath, "group_scenarios", call("batch.group", after=group_after))
    patches.replace(repro.fastpath.batch, "group_scenarios", call("batch.group", after=group_after))
    patches.replace(
        BatchEstimator, "evaluate_group",
        call("batch.evaluate", aggregate=True,
             after=counted("batch.evaluated", lambda a, k, r: len(r))),
    )

    # fastpath.compiled: template lookup/compilation behind compile_for.
    patches.replace(BatchEstimator, "compile_for", call("compiled.compile", aggregate=True))
    patches.replace(
        BatchEstimator, "__init__",
        call("compiled.init", after=lambda t, args, kwargs, result: t.estimators.append(args[0])),
    )

    # core.explorer: Pareto fronts, where the CLI and the search strategies
    # look them up.
    def front_after(t, args, kwargs, result):
        points = args[0] if args else kwargs["points"]
        t.count("explorer.pareto_points", len(points))
        t.counters["explorer.front_size"] = len(result)

    patches.replace(repro.core.explorer, "pareto_front", call("explorer.pareto", after=front_after))
    patches.replace(
        repro.search.strategies, "pareto_front", call("explorer.pareto", after=front_after)
    )

    # search: the runner (strategy work is its self time) and index decoding.
    def search_after(t, args, kwargs, result):
        t.count("search.rounds", len(result.rounds))
        t.count("search.evaluations", result.evaluations)

    patches.replace(repro.search, "run_search", call("search", after=search_after))
    patches.replace(GridSpace, "scenario", call("search.decode", aggregate=True))
    return patches


def compile_stats(tracer: Tracer) -> Dict[str, int]:
    """Template-cache counters summed over the estimators a call created."""
    totals: Dict[str, int] = {}
    for estimator in tracer.estimators:
        for key, value in estimator.cache_stats().items():
            totals[key] = totals.get(key, 0) + value
    tracer.estimators.clear()
    return totals
