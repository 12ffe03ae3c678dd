"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer (and, where a
layer has none, the private boundary named at its patch) in the running
process.  Each call becomes a span ``[id, layer, function, start, end,
parent id, thread id, raised]`` kept in memory; :func:`summarize` turns
them into per-layer self time (a span's duration minus its direct
children's) and counts.  Nothing is added inside ``src/``.

The wrappers stay installed for the whole run and cost one attribute read
while :attr:`Tracer.enabled` is false, so a traced run can measure an
untraced window and a traced one back to back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Time blocked on a socket read; excluded from every layer's self time.
WAIT = "wait.socket"
FIELDS = ["id", "layer", "function", "start", "end", "parent", "thread", "raised"]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, layer: str, function):
        tracer = self
        local = self._local
        what = function.__name__

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [
                next(tracer._ids), layer, what, time.perf_counter(), 0.0,
                stack[-1] if stack else -1, threading.get_ident(), False,
            ]
            tracer.spans.append(span)
            stack.append(span[0])
            try:
                return function(*args, **kwargs)
            except BaseException:
                span[7] = True
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        traced.aqpbench_wrapped = True
        return traced

    def patch(self, owner, attribute: str, layer: str) -> None:
        current = getattr(owner, attribute)
        if getattr(current, "aqpbench_wrapped", False):
            return
        setattr(owner, attribute, self.wrap(layer, current))

    def take(self) -> list[list]:
        """Finished spans recorded so far; the tracer starts over."""
        spans, self.spans = self.spans, []
        return [span for span in spans if span[4]]

    @staticmethod
    def dump(spans: list[list], path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": FIELDS, "spans": spans}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from repro import client
    from repro.api import connection, session
    from repro.connectors.syntax_changer import SyntaxChanger
    from repro.core import answer, flattener, query_info
    from repro.core.rewriter import AqpRewriter
    from repro.core.sample_planner import SamplePlanner
    from repro.sampling.builder import SampleBuilder
    from repro.sampling.maintenance import SampleMaintainer
    from repro.server import protocol, server
    from repro.sqlengine import engine, executor, parser, planner, shardpool

    # Module-level functions are patched where they are defined and in every
    # module that imported them by name.
    for owner in (parser,):
        tracer.patch(owner, "parse", "sqlengine.parser")
    for owner in (flattener, session):
        tracer.patch(owner, "flatten", "core.analysis")
    for owner in (query_info, session):
        tracer.patch(owner, "analyze", "core.analysis")
    for owner in (planner, engine):
        tracer.patch(owner, "plan_select", "sqlengine.planner")
    for owner in (answer, session):
        tracer.patch(owner, "merge_by_group", "core.answer")
    tracer.patch(SamplePlanner, "plan", "core.sample_planner")
    tracer.patch(AqpRewriter, "rewrite", "core.rewriter")
    tracer.patch(AqpRewriter, "rewrite_count_distinct", "core.rewriter")
    tracer.patch(SyntaxChanger, "to_sql", "connectors.syntax_changer")
    tracer.patch(engine.Database, "execute", "sqlengine.engine")
    tracer.patch(engine.Database, "execute_statement", "sqlengine.engine")
    tracer.patch(executor.Executor, "execute_select", "sqlengine.executor")
    for method in ("run_tasks", "ensure_published", "publish_plan"):
        tracer.patch(shardpool.ShardPool, method, "sqlengine.shardpool")
    for method in ("execute", "append_data", "prepare"):
        tracer.patch(session.VerdictSession, method, "api.session")
    for method in ("execute", "fetchall", "fetchone", "fetchmany"):
        tracer.patch(connection.Cursor, method, "api.connection")
    for method in ("__init__", "fetchall", "margins", "confidence_interval"):
        tracer.patch(answer.ApproximateResult, method, "core.answer")
    tracer.patch(SampleBuilder, "create_sample", "sampling.builder")
    tracer.patch(SampleMaintainer, "append", "sampling.maintenance")
    for method in ("execute", "fetchall", "fetchone", "fetchmany"):
        tracer.patch(client.RemoteCursor, method, "client")
    # The protocol module is shared by both ends; its socket reads block
    # for the peer, which is waiting, not protocol work.
    tracer.patch(protocol, "send_frame", "server.protocol")
    tracer.patch(protocol, "recv_frame", "server.protocol")
    tracer.patch(protocol, "_recv_exact", WAIT)
    # The server has no public per-query entry point: its handler's
    # dispatch, query and fetch methods are the layer boundary.
    for method in ("_dispatch", "_on_query", "_run_query", "_on_fetch"):
        tracer.patch(server._ClientHandler, method, "server.server")


def summarize(spans: list[list]) -> dict:
    """Self and inclusive seconds and calls per layer, plus counts.

    A layer's inclusive time adds the durations of its spans that were not
    called from the same layer.
    ``engine_statements`` counts outermost engine calls, ``engine_parses``
    parses made inside the engine (which the program counts as statement
    cache misses), ``dispatches`` shard-pool task rounds that returned, and
    ``frames`` frames sent by this process.
    """
    by_id = {span[0]: span for span in spans}
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span[5] in by_id:
            child_seconds[span[5]] = child_seconds.get(span[5], 0.0) + span[4] - span[3]
    self_seconds: dict[str, float] = {}
    total_seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts = {"engine_statements": 0, "engine_parses": 0, "dispatches": 0, "frames": 0}
    for span in spans:
        layer = span[1]
        own = span[4] - span[3] - child_seconds.get(span[0], 0.0)
        self_seconds[layer] = self_seconds.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        parent = by_id.get(span[5])
        parent_layer = parent[1] if parent is not None else None
        if parent_layer != layer:
            total_seconds[layer] = total_seconds.get(layer, 0.0) + span[4] - span[3]
        if layer == "sqlengine.engine" and parent_layer != "sqlengine.engine":
            counts["engine_statements"] += 1
        elif layer == "sqlengine.parser" and parent_layer == "sqlengine.engine":
            counts["engine_parses"] += 1
        elif span[2] == "run_tasks" and not span[7]:
            counts["dispatches"] += 1
        elif span[2] == "send_frame":
            counts["frames"] += 1
    return {
        "self_seconds": self_seconds, "total_seconds": total_seconds,
        "calls": calls, "counts": counts,
    }


def merge(first: dict, second: dict) -> dict:
    """Add two :func:`summarize` results (e.g. client and server process)."""
    merged = {}
    for key in ("self_seconds", "total_seconds", "calls", "counts"):
        merged[key] = dict(first[key])
        for name, value in second[key].items():
            merged[key][name] = merged[key].get(name, 0) + value
    return merged
