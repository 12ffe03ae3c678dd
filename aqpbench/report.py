"""Metric assembly shared by the workloads.

Metric names and units come from ``BENCHMARK.json`` so that the file and the
printed result cannot drift apart.
"""

from __future__ import annotations

import json
import os
import sys

from aqpbench import common

#: Program counters (``Database.stats``) the per-layer ratios are built from.
STAT_KEYS = (
    "analysis_cache_hits", "analysis_cache_misses",
    "rewrite_cache_hits", "rewrite_cache_misses",
    "statement_cache_hits", "statement_cache_misses",
    "plan_cache_hits", "plan_cache_misses",
    "parallel_exec_dispatches", "parallel_exec_fallbacks", "shard_publications",
)


def declared_metrics() -> dict[str, list[dict]]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def stats_snapshot(stats: dict) -> dict[str, int]:
    return {key: int(stats.get(key, 0)) for key in STAT_KEYS}


def stats_delta(before: dict, after: dict) -> dict[str, int]:
    return {key: after[key] - before[key] for key in STAT_KEYS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    summary: dict,
    stats: dict[str, int],
    statements: int,
    approximate: int,
    rounds: int = 0,
    rows_appended: int = 0,
    append_seconds: float = 0.0,
    setup: dict | None = None,
    qps_ratio: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics of one traced window (``summary``) and of set-up.

    Self times are ms per user statement (work done for appends inside the
    window is included in the time, not in the count).  The sample builder
    does its work through SQL, so besides its self time its inclusive time
    is reported, which is what moves ``setup_s``.
    """
    setup = setup or {"self_seconds": {}, "total_seconds": {}}
    self_seconds = summary["self_seconds"]
    counts = summary["counts"]

    def self_ms(layer: str) -> float:
        return 1000.0 * _ratio(self_seconds.get(layer, 0.0), statements)

    metrics = {
        f"{layer}.self_ms": self_ms(layer)
        for layer in (
            "sqlengine.parser", "core.analysis", "core.sample_planner", "core.rewriter",
            "connectors.syntax_changer", "sqlengine.planner", "sqlengine.engine",
            "sqlengine.executor", "sqlengine.shardpool", "api.connection", "api.session",
            "core.answer", "client", "server.protocol", "server.server",
        )
    }
    dispatches = stats["parallel_exec_dispatches"]
    metrics.update({
        "sqlengine.executor.calls_per_statement": _ratio(counts["engine_statements"], statements),
        "sqlengine.shardpool.dispatch_ratio": _ratio(
            dispatches, dispatches + stats["parallel_exec_fallbacks"]
        ),
        "sqlengine.shardpool.publications_per_round": _ratio(stats["shard_publications"], rounds),
        "server.protocol.frames_per_query": _ratio(counts["frames"], statements),
        "api.session.analysis_cache_hit_ratio": _ratio(
            stats["analysis_cache_hits"],
            stats["analysis_cache_hits"] + stats["analysis_cache_misses"],
        ),
        "api.session.rewrite_cache_hit_ratio": _ratio(
            stats["rewrite_cache_hits"],
            stats["rewrite_cache_hits"] + stats["rewrite_cache_misses"],
        ),
        "sqlengine.statement_cache_hit_ratio": _ratio(
            stats["statement_cache_hits"],
            stats["statement_cache_hits"] + stats["statement_cache_misses"],
        ),
        "sqlengine.plan_cache_hit_ratio": _ratio(
            stats["plan_cache_hits"], stats["plan_cache_hits"] + stats["plan_cache_misses"]
        ),
        "core.sample_planner.approx_ratio": _ratio(approximate, statements),
        "sampling.maintenance.self_ms_per_krow": 1000.0 * _ratio(
            self_seconds.get("sampling.maintenance", 0.0), rows_appended / 1000.0
        ),
        "sampling.builder.self_s": setup["self_seconds"].get("sampling.builder", 0.0),
        "sampling.builder.total_s": setup["total_seconds"].get("sampling.builder", 0.0),
        "ingest_rows_per_s": _ratio(rows_appended, append_seconds),
        "trace.qps_ratio": qps_ratio,
    })
    return metrics


def cross_check(summary: dict, stats: dict[str, int]) -> list[str]:
    """Traced counts that disagree with the program's own counters."""
    counts = summary["counts"]
    problems = []
    if counts["engine_parses"] != stats["statement_cache_misses"]:
        problems.append(
            f"traced engine parses {counts['engine_parses']} != statement cache misses "
            f"{stats['statement_cache_misses']}"
        )
    if counts["dispatches"] != stats["parallel_exec_dispatches"]:
        problems.append(
            f"traced shard dispatches {counts['dispatches']} != parallel_exec_dispatches "
            f"{stats['parallel_exec_dispatches']}"
        )
    return problems


#: A cache-hit ratio counts as "about 0" below this and "about 1" above 1 minus it.
NEAR = 0.1


def mechanism_problems(workload: str, stats: dict[str, int], appends: int = 0) -> list[str]:
    """The mechanisms a workload was chosen for that its window did not show.

    ``stats`` are the program's counters over one measured window and
    ``appends`` the batches appended in it.  ``tpch_adhoc`` must miss the
    analysis cache (no statement repeats), ``served_prepared`` must hit it,
    neither may use the shard pool, and ``ingest_sharded`` must dispatch its
    reconciliation to the pool after every append and republish at least
    once per append.
    """
    hits, misses = stats["analysis_cache_hits"], stats["analysis_cache_misses"]
    ratio = _ratio(hits, hits + misses)
    dispatches = stats["parallel_exec_dispatches"]
    publications = stats["shard_publications"]
    problems = []
    if workload == "tpch_adhoc" and ratio > NEAR:
        problems.append(f"analysis cache hit ratio {ratio:.3f}, expected about 0")
    if workload == "served_prepared" and ratio < 1.0 - NEAR:
        problems.append(f"analysis cache hit ratio {ratio:.3f}, expected about 1")
    if workload != "ingest_sharded" and dispatches:
        problems.append(f"{dispatches} shard dispatches, expected none")
    if workload == "ingest_sharded":
        if appends < 1:
            problems.append("no append in the window")
        if dispatches < appends:
            problems.append(f"{dispatches} shard dispatches for {appends} reconciliations")
        if publications < appends:
            problems.append(f"{publications} shard publications for {appends} appends")
    print(
        f"mechanism: analysis_cache_hit_ratio={ratio:.3f} shard_dispatches={dispatches} "
        f"fallbacks={stats['parallel_exec_fallbacks']} publications={publications} "
        f"appends={appends}"
    )
    return [f"mechanism: {problem}" for problem in problems]


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, float], trace: bool):
    """Print every declared metric by name and unit, then the result line."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    missing = [entry["name"] for entry in declared if entry["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {', '.join(missing)}")
    result = {}
    for entry in declared:
        value = float(metrics[entry["name"]])
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<44} {value:>14.6g} {entry['unit']}")
    print(f"{'attempted':<44} {attempted:>14d}\n{'failed':<44} {failed:>14d}")
    sys.stdout.flush()
    print(json.dumps(
        {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": result}
    ))
